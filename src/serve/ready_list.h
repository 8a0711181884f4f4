// ReadyList: the keys of one dispatcher shard that have pending queries,
// and the dispatch rule that picks among them. A shard may have seen
// thousands of keys (one per query function of a large paged catalog),
// but only the few with queued work can be dispatched; keeping those in
// a side list makes each dispatcher pass cost O(keys with work) instead
// of O(keys ever seen).
#ifndef NEUROSKETCH_SERVE_READY_LIST_H_
#define NEUROSKETCH_SERVE_READY_LIST_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

#include "serve/sketch_store.h"

namespace neurosketch {
namespace serve {

/// \brief A shard's keys whose `pending` queue is non-empty. `State` is
/// the per-key state: its `pending` member is a deque of spans, each the
/// not-yet-taken queries [next, end) of one `completion` with a
/// steady_clock `enqueued` stamp, and its `queued` member counts the
/// queries in them. The list stays exact: the owner Adds a key when its
/// queue goes from empty to non-empty, and Take unlists it when a dispatch
/// empties the queue (a partial take leaves it listed).
template <typename State>
class ReadyList {
 public:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    const ServeKey* key;  // the key's map node: stable for its lifetime
    State* state;
  };

  /// What Pick found.
  struct Pick {
    /// Index of the key to dispatch, or size() when none is dispatchable.
    size_t chosen = 0;
    /// Some listed key is waiting for its window; `earliest` is the first
    /// such deadline (the dispatcher's timed wait).
    bool have_deadline = false;
    Clock::time_point earliest{};
  };

  /// Lists a key whose queue just went from empty to non-empty.
  void Add(const ServeKey* key, State* state) {
    entries_.push_back({key, state});
  }

  /// The dispatch rule. A key is dispatchable when its queue holds at
  /// least `max_batch` queries, its window (front query's enqueue time
  /// + `window`) has expired, the window is zero, or the shard is
  /// stopping. Among dispatchable keys the earliest deadline wins — a
  /// continuously full hot key must not starve a colder key whose window
  /// already expired — and equal deadlines go to the smaller ServeKey.
  Pick Next(Clock::time_point now, Clock::duration window, size_t max_batch,
            bool stopping) const {
    Pick p;
    p.chosen = entries_.size();
    Clock::time_point chosen_deadline{};
    for (size_t i = 0; i < entries_.size(); ++i) {
      const State& st = *entries_[i].state;
      const Clock::time_point deadline = st.pending.front().enqueued + window;
      if (st.queued >= max_batch || window.count() == 0 || stopping ||
          deadline <= now) {
        if (p.chosen == entries_.size() || deadline < chosen_deadline ||
            (deadline == chosen_deadline &&
             *entries_[i].key < *entries_[p.chosen].key)) {
          p.chosen = i;
          chosen_deadline = deadline;
        }
      } else if (!p.have_deadline || deadline < p.earliest) {
        p.earliest = deadline;
        p.have_deadline = true;
      }
    }
    return p;
  }

  /// Cuts up to `max_batch` queries from the front of entry `i`'s queue
  /// onto `out` as pieces {completion, begin, count}, one per span touched
  /// (the last one may be split), and unlists the key if that empties its
  /// queue (the last entry then takes index `i`).
  template <typename Out>
  void Take(size_t i, size_t max_batch, Out* out) {
    State& st = *entries_[i].state;
    size_t want = std::min(max_batch, st.queued);
    st.queued -= want;
    while (want > 0) {
      auto& span = st.pending.front();
      const size_t count = std::min(want, span.end - span.next);
      out->push_back({span.completion, span.next, count});
      span.next += count;
      want -= count;
      if (span.next == span.end) st.pending.pop_front();
    }
    if (st.pending.empty()) {
      entries_[i] = entries_.back();
      entries_.pop_back();
    }
  }

  const Entry& operator[](size_t i) const { return entries_[i]; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace serve
}  // namespace neurosketch

#endif  // NEUROSKETCH_SERVE_READY_LIST_H_
