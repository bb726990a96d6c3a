#ifndef PDMS_OBS_EXPORT_H_
#define PDMS_OBS_EXPORT_H_

#include <string>

#include "pdms/obs/trace.h"
#include "pdms/util/status.h"

namespace pdms {
namespace obs {

/// Serializes the context's spans in the Chrome `trace_event` format —
/// one complete ("ph":"X") event per span, timestamps in microseconds —
/// loadable in chrome://tracing and https://ui.perfetto.dev. Span
/// attributes become the event's `args`, the trace id is attached to every
/// event as `args.trace_id`, and the span/parent ids go to `args.span_id` /
/// `args.parent_id` so the tree is reconstructible. Spans still open at
/// export time are emitted with zero duration and `args.open = "true"`.
///
/// The output is a deterministic function of the spans (no wall-clock
/// stamps, no pointers), which the golden-file test relies on.
std::string ChromeTraceJson(const TraceContext& trace);

/// Writes ChromeTraceJson to a file.
Status WriteChromeTrace(const TraceContext& trace, const std::string& path);

/// The per-query "explain" rendering: the span tree indented by depth with
/// per-node [start, duration] and attributes — what ppl_shell's `explain`
/// command prints.
std::string RenderSpanTree(const TraceContext& trace);

/// RenderSpanTree without the timing columns: node names, nesting, and
/// attributes only. Two runs that did the same work render identically
/// here no matter how long each step took — the parallel-equivalence tests
/// byte-compare this form across fresh facades.
std::string RenderSpanTreeStructure(const TraceContext& trace);

}  // namespace obs
}  // namespace pdms

#endif  // PDMS_OBS_EXPORT_H_
