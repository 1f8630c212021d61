#include "metrics/writer.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace odtn::metrics {

namespace {

constexpr const char* kSchema = "odtn.metrics.v1";

void quantile_triple(const Histogram& h, double* p50, double* p90,
                     double* p99) {
  *p50 = h.quantile(0.50);
  *p90 = h.quantile(0.90);
  *p99 = h.quantile(0.99);
}

}  // namespace

std::string format_double(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void write_jsonl(std::ostream& os, const Registry& reg) {
  for (const auto& [name, m] : reg.entries()) {
    os << "{\"schema\":\"" << kSchema << "\",\"name\":\"" << name
       << "\",\"kind\":\"" << kind_name(m.kind) << "\"";
    switch (m.kind) {
      case Kind::kCounter:
        os << ",\"value\":" << m.counter;
        break;
      case Kind::kHistogram: {
        double p50, p90, p99;
        quantile_triple(m.hist, &p50, &p90, &p99);
        os << ",\"count\":" << m.hist.count()
           << ",\"sum\":" << format_double(m.hist.sum())
           << ",\"mean\":" << format_double(m.hist.mean())
           << ",\"min\":" << format_double(m.hist.min())
           << ",\"max\":" << format_double(m.hist.max())
           << ",\"p50\":" << format_double(p50)
           << ",\"p90\":" << format_double(p90)
           << ",\"p99\":" << format_double(p99) << ",\"buckets\":[";
        bool first = true;
        for (const auto& b : m.hist.buckets()) {
          if (!first) os << ",";
          first = false;
          os << "[" << format_double(b.lo) << "," << format_double(b.hi)
             << "," << b.count << "]";
        }
        os << "]";
        break;
      }
    }
    os << "}\n";
  }
}

void write_csv(std::ostream& os, const Registry& reg) {
  os << "name,kind,value,count,sum,mean,min,max,p50,p90,p99\n";
  for (const auto& [name, m] : reg.entries()) {
    os << name << "," << kind_name(m.kind) << ",";
    switch (m.kind) {
      case Kind::kCounter:
        os << m.counter << ",,,,,,,,";
        break;
      case Kind::kHistogram: {
        double p50, p90, p99;
        quantile_triple(m.hist, &p50, &p90, &p99);
        os << "," << m.hist.count() << "," << format_double(m.hist.sum())
           << "," << format_double(m.hist.mean()) << ","
           << format_double(m.hist.min()) << "," << format_double(m.hist.max())
           << "," << format_double(p50) << "," << format_double(p90) << ","
           << format_double(p99);
        break;
      }
    }
    os << "\n";
  }
}

std::string to_jsonl(const Registry& reg) {
  std::ostringstream os;
  write_jsonl(os, reg);
  return os.str();
}

void write_file(const std::string& path, const Registry& reg) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("metrics: cannot open output file: " + path);
  }
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    write_csv(out, reg);
  } else {
    write_jsonl(out, reg);
  }
}

}  // namespace odtn::metrics
