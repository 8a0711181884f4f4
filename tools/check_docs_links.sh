#!/usr/bin/env bash
# Fails when a relative markdown link in README.md or docs/*.md points at
# a file that does not exist, or when its "#anchor" names no heading of
# the target markdown file (the doc itself for an intra-page "#anchor").
# Anchors are GitHub's heading slugs: the heading text lowercased, every
# character other than a letter, digit, space, "-" or "_" dropped, spaces
# turned into "-", and "-1", "-2", ... appended to repeated slugs.
# External links (http/https/mailto) are skipped. Run from anywhere;
# paths resolve against the repo root.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
status=0

# The heading slugs of markdown file $1, one per line; headings inside
# fenced code blocks do not count.
slugs() {
  awk '
    /^[[:space:]]*```/ { fenced = !fenced; next }
    fenced || !/^#+[[:space:]]/ { next }
    {
      text = $0
      sub(/^#+[[:space:]]+/, "", text)
      sub(/[[:space:]]+#*[[:space:]]*$/, "", text)
      slug = tolower(text)
      gsub(/[^a-z0-9 _-]/, "", slug)
      gsub(/ /, "-", slug)
      if (slug in seen) {
        print slug "-" seen[slug]
        seen[slug]++
      } else {
        print slug
        seen[slug] = 1
      }
    }
  ' "$1"
}

for doc in "$root"/README.md "$root"/docs/*.md; do
  [ -f "$doc" ] || continue
  docdir="$(dirname "$doc")"
  # Inline markdown links: [text](target). Good enough for these docs;
  # reference-style links are not used here.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path="${target%%#*}"
    file="$doc"
    if [ -n "$path" ]; then
      file="$docdir/$path"
      if [ ! -e "$file" ]; then
        echo "BROKEN: $doc -> $target"
        status=1
        continue
      fi
    fi
    [ "$path" != "$target" ] || continue  # no anchor
    anchor="${target#*#}"
    case "$file" in
      *.md) ;;
      *) continue ;;  # only markdown headings have slugs to check
    esac
    if ! slugs "$file" | grep -qxF -- "$anchor"; then
      echo "BROKEN ANCHOR: $doc -> $target"
      status=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
done

if [ "$status" -eq 0 ]; then
  echo "docs links OK"
fi
exit "$status"
