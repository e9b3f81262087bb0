#include "trace.hpp"

#include <cstdio>

#include "json.hpp"

namespace ledger {

void Tracer::record(const Span& s) {
  tgnn::util::MutexLock lk(mu_);
  spans_.push_back(s);
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
               "\"args\": {\"name\": %s}}",
               json::quote(process_name).c_str());
  static constexpr struct {
    int track;
    const char* name;
  } kTracks[] = {{kLoadgenTrack, "loadgen submit"},
                 {kMonitorTrack, "monitor stats()"},
                 {kReplayTrack, "serial staged replay"}};
  for (const auto& t : kTracks)
    std::fprintf(f,
                 ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": "
                 "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                 t.track, t.name);
  tgnn::util::MutexLock lk(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", "
                 "\"cat\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu",
                 s.track, s.name, s.layer, s.start_us, s.dur_us,
                 static_cast<unsigned long long>(s.id));
    if (s.end > s.begin)
      std::fprintf(f, ", \"begin\": %llu, \"end\": %llu",
                   static_cast<unsigned long long>(s.begin),
                   static_cast<unsigned long long>(s.end));
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace ledger
