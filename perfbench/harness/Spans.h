//===- Spans.h - Span log for traced benchmark runs ----------------------------===//
//
// The traced run times every call it makes into an analyzer layer from
// the outside: a Span brackets the call and records (name, start, end,
// parent).  A child process returns its spans on stdout next to its
// Record; the parent's spans and every child's land in one JSON-lines
// file, and a layer's self time is its span duration minus the
// durations of its direct children.
//
//===----------------------------------------------------------------------===//

#ifndef SPA_PERFBENCH_SPANS_H
#define SPA_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRec {
  uint64_t Id = 0, Parent = 0; ///< Parent 0 = root.
  std::string Name;
  double Start = 0, End = 0; ///< Seconds on the steady clock.
};

class SpanLog {
public:
  /// Opens a span under the innermost open one (or under \p RootParent
  /// when none is open).  Returns its id.
  uint64_t open(const std::string &Name);
  /// Closes the innermost open span (spans nest: see Span).
  void close();

  /// Parent id for top-level spans: lets a child process hang its spans
  /// under the parent process's span for the call that started it.
  void setRootParent(uint64_t P) { RootParent = P; }
  /// Innermost open span (RootParent when none).
  uint64_t current() const;

  const std::vector<SpanRec> &spans() const { return Spans; }
  void append(const std::vector<SpanRec> &More);

  /// Self time per span name: duration minus the durations of its direct
  /// children.
  std::map<std::string, double> selfTimes() const;
  /// Summed duration of the spans named \p Name.
  double total(const std::string &Name) const;

  /// One JSON object per line: {"id","parent","name","start","end"}.
  std::string toJsonLines() const;
  /// The form a child prints on stdout after its Record: one
  /// "span <id> <parent> <start> <end> <name>" line per span.
  std::string toRecordLines() const;
  /// Appends the span lines of a child's stdout (other lines are skipped).
  void appendRecordLines(const std::string &Out);

private:
  std::vector<SpanRec> Spans;
  std::vector<size_t> Open; ///< Indices into Spans.
  uint64_t RootParent = 0;
};

/// RAII span; a null log makes it a no-op, so untraced code paths share
/// the same call sites.
class Span {
public:
  Span(SpanLog *Log, const std::string &Name) : Log(Log) {
    if (Log)
      Log->open(Name);
  }
  ~Span() {
    if (Log)
      Log->close();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanLog *Log;
};

} // namespace perfbench

#endif // SPA_PERFBENCH_SPANS_H
