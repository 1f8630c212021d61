// Reads a trace held in a string the way load_trace_file and the CLI read
// a file: a trace::TraceReader over a stream, then the ContactTrace
// constructor.
#pragma once

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/contact_trace.hpp"
#include "trace/trace_reader.hpp"

namespace odtn::test_support {

inline trace::ContactTrace read_trace(trace::TraceFormat format,
                                      const std::string& text,
                                      std::size_t node_count) {
  std::istringstream in(text);
  trace::TraceReader reader(in, format, node_count);
  std::vector<trace::ContactEvent> events;
  trace::ContactEvent e;
  while (reader.next(e)) events.push_back(e);
  return trace::ContactTrace(node_count, std::move(events));
}

}  // namespace odtn::test_support
