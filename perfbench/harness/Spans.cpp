//===- Spans.cpp - Span log for traced benchmark runs --------------------------===//

#include "Spans.h"

#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unistd.h>
#include <unordered_map>

namespace perfbench {

uint64_t SpanLog::open(const std::string &Name) {
  // Ids are unique across the processes of one run: pid in the high
  // half, a per-process counter in the low half.
  uint64_t Id = (static_cast<uint64_t>(getpid()) << 32) | (Spans.size() + 1);
  SpanRec R;
  R.Id = Id;
  R.Parent = current();
  R.Name = Name;
  R.Start = nowSeconds();
  Open.push_back(Spans.size());
  Spans.push_back(std::move(R));
  return Id;
}

void SpanLog::close() {
  Spans[Open.back()].End = nowSeconds();
  Open.pop_back();
}

uint64_t SpanLog::current() const {
  return Open.empty() ? RootParent : Spans[Open.back()].Id;
}

void SpanLog::append(const std::vector<SpanRec> &More) {
  Spans.insert(Spans.end(), More.begin(), More.end());
}

double SpanLog::total(const std::string &Name) const {
  double T = 0;
  for (const SpanRec &S : Spans)
    if (S.Name == Name)
      T += S.End - S.Start;
  return T;
}

std::map<std::string, double> SpanLog::selfTimes() const {
  std::unordered_map<uint64_t, double> ChildTime;
  for (const SpanRec &S : Spans)
    if (S.Parent)
      ChildTime[S.Parent] += S.End - S.Start;
  std::map<std::string, double> Self;
  for (const SpanRec &S : Spans) {
    auto It = ChildTime.find(S.Id);
    Self[S.Name] += (S.End - S.Start) - (It == ChildTime.end() ? 0 : It->second);
  }
  return Self;
}

std::string SpanLog::toJsonLines() const {
  std::string Out;
  char Buf[512];
  for (const SpanRec &S : Spans) {
    std::snprintf(Buf, sizeof(Buf),
                  "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                  "\"start\": %.9f, \"end\": %.9f}\n",
                  static_cast<unsigned long long>(S.Id),
                  static_cast<unsigned long long>(S.Parent), S.Name.c_str(),
                  S.Start, S.End);
    Out += Buf;
  }
  return Out;
}

std::string SpanLog::toRecordLines() const {
  std::string Out;
  char Buf[512];
  for (const SpanRec &S : Spans) {
    std::snprintf(Buf, sizeof(Buf), "span %llu %llu %.9f %.9f %s\n",
                  static_cast<unsigned long long>(S.Id),
                  static_cast<unsigned long long>(S.Parent), S.Start, S.End,
                  S.Name.c_str());
    Out += Buf;
  }
  return Out;
}

void SpanLog::appendRecordLines(const std::string &Out) {
  std::istringstream In(Out);
  std::string Line;
  while (std::getline(In, Line)) {
    unsigned long long Id, Parent;
    double Start, End;
    char Name[256];
    if (std::sscanf(Line.c_str(), "span %llu %llu %lf %lf %255s", &Id, &Parent,
                    &Start, &End, Name) == 5)
      Spans.push_back({Id, Parent, Name, Start, End});
  }
}

} // namespace perfbench
