# Shared by the tools/check_*.sh gates; source it, do not run it.

# field NAME TEXT WHERE: print the value of the first "NAME": in TEXT,
# quotes stripped. When NAME is absent, print "error: NAME missing in
# WHERE" and fail, so a gate run under `set -e` stops with a diagnostic
# instead of exiting silently on a failed grep.
field() {
  local value
  value=$(grep -o "\"$1\": *[-0-9.a-z_\"]*" <<< "$2" | head -1 |
    sed 's/.*: *//; s/"//g' || true)
  if [[ -z "$value" ]]; then
    echo "error: $1 missing in $3" >&2
    return 1
  fi
  echo "$value"
}
