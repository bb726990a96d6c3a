#ifndef PDMS_OBS_TRACE_H_
#define PDMS_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pdms/util/timer.h"

namespace pdms {
namespace obs {

/// Identifies one span within its TraceContext. Ids are assigned densely in
/// creation order (1-based; 0 means "no span"), so two executions that
/// create the same spans in the same order produce identical ids — the
/// determinism the virtual-clock span tests lean on.
using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// One timed, named, attributed interval of a query's execution. Spans form
/// a tree via `parent`; attribute order is insertion order (deterministic).
struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;
  double start_ms = 0;
  double end_ms = -1;  // < start_ms while the span is still open
  std::vector<std::pair<std::string, std::string>> attributes;

  bool open() const { return end_ms < start_ms; }
  double duration_ms() const { return open() ? 0 : end_ms - start_ms; }
  /// Value of the first attribute named `key`, or nullptr.
  const std::string* FindAttribute(const std::string& key) const;
};

/// A query-scoped collector of hierarchical spans.
///
/// The hot paths receive a `TraceContext*` that is usually null — the null
/// sink. Every instrumentation site guards on the pointer (most via
/// ScopedSpan below), so tracing disabled costs one branch per site and
/// allocates nothing.
///
/// Clock: by default spans are stamped with monotonic wall time measured
/// from construction (or the last Clear). `set_now_fn` rebinds the clock —
/// the simulated runtime points it at the event loop's virtual clock so a
/// distributed execution's span tree is a deterministic function of its
/// seed, timestamps included.
///
/// Threading: a TraceContext is not itself thread-safe — one context
/// belongs to one task on one thread. Parallel execution gives each task
/// its own context (`Fork`, which shares the parent's clock) and grafts the
/// finished child back with `MergeChild`. Merging children in a
/// deterministic order (child index, not completion order) reproduces the
/// exact span ids a serial depth-first execution would have assigned.
class TraceContext {
 public:
  explicit TraceContext(std::string trace_id = "query");

  /// Rebinds the clock; pass an empty function to return to wall time
  /// (re-epoched at the moment of the call).
  void set_now_fn(std::function<double()> now);
  double now_ms() const;

  const std::string& trace_id() const { return trace_id_; }
  void set_trace_id(std::string id) { trace_id_ = std::move(id); }

  /// Opens a span as a child of the innermost open span (or a root) and
  /// makes it the innermost. Returns its id.
  SpanId StartSpan(std::string name);
  /// Opens a span under an explicit parent WITHOUT making it the innermost
  /// open span — for work that outlives the current scope, e.g. an
  /// in-flight message whose delivery ends it from an event-loop callback.
  SpanId StartSpanAt(std::string name, SpanId parent);
  /// Closes a span. If it is the innermost open span the scope pops back to
  /// its parent; ending a detached span leaves the scope stack alone.
  void EndSpan(SpanId id);
  /// A zero-duration child of the innermost open span (an event marker).
  SpanId Instant(std::string name);

  void SetAttribute(SpanId id, std::string key, std::string value);
  void SetAttribute(SpanId id, std::string key, const char* value);
  void SetAttribute(SpanId id, std::string key, double value);
  void SetAttribute(SpanId id, std::string key, uint64_t value);
  void SetAttribute(SpanId id, std::string key, int value);
  void SetAttribute(SpanId id, std::string key, bool value);

  /// The innermost open span (kNoSpan when none).
  SpanId current() const {
    return stack_.empty() ? kNoSpan : stack_.back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }
  /// Read-only access to one span; nullptr for kNoSpan or out of range.
  const Span* span(SpanId id) const {
    return (id == kNoSpan || id > spans_.size()) ? nullptr : &spans_[id - 1];
  }

  /// Discards all spans and re-opens the scope at root; trace id and clock
  /// binding are kept. Called by the facades at every query entry so one
  /// long-lived context always holds exactly the last query's trace.
  void Clear();

  /// A fresh context for a parallel child task, reading this context's
  /// clock (so all timestamps share one epoch). The child must not outlive
  /// this context — fork/join guarantees that. Reading the clock is safe
  /// from multiple threads; everything else on the parent is off-limits
  /// until the child is merged back.
  TraceContext Fork() const;

  /// Grafts a finished child's spans into this context: child ids are
  /// offset past the existing spans (keeping ids dense), child roots are
  /// reparented under `graft_parent`, and the child is left empty. Calling
  /// this for each child in child-index order recreates the span sequence
  /// of a serial depth-first execution.
  void MergeChild(SpanId graft_parent, TraceContext&& child);

  /// Grafts externally-collected spans — e.g. a wire span block returned
  /// by a remote server (serve/wire.h) — under `graft_parent`. Unlike
  /// MergeChild the input is untrusted and on a foreign clock: ids are
  /// remapped densely past the existing spans in list order, parents that
  /// do not resolve within the imported set (including kNoSpan roots,
  /// duplicates, and self/forged references) fall back to `graft_parent`,
  /// and every timestamp is shifted by `shift_ms` to land the remote
  /// epoch on this context's clock.
  void ImportSpans(SpanId graft_parent, std::vector<Span> spans,
                   double shift_ms);

 private:
  Span* Find(SpanId id);

  std::string trace_id_;
  std::function<double()> now_;  // empty = wall clock from `wall_`
  WallTimer wall_;
  std::vector<Span> spans_;    // index = id - 1
  std::vector<SpanId> stack_;  // innermost open span last
};

/// RAII span for the common scoped case; all operations are no-ops when the
/// context is null, so call sites need no guards of their own.
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* ctx, const char* name) : ctx_(ctx) {
    if (ctx_ != nullptr) id_ = ctx_->StartSpan(name);
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early (idempotent).
  void End() {
    if (ctx_ != nullptr && id_ != kNoSpan) ctx_->EndSpan(id_);
    id_ = kNoSpan;
  }

  /// Sets an attribute on the span. The key's string is built only when
  /// tracing, so an untraced call costs one branch.
  template <typename V>
  void Set(std::string_view key, V value) {
    if (ctx_ != nullptr && id_ != kNoSpan) {
      ctx_->SetAttribute(id_, std::string(key), std::move(value));
    }
  }

  SpanId id() const { return id_; }

 private:
  TraceContext* ctx_;
  SpanId id_ = kNoSpan;
};

}  // namespace obs
}  // namespace pdms

#endif  // PDMS_OBS_TRACE_H_
