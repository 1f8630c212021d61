// MetricsWriter — serializes a Registry as JSON-lines or CSV.
//
// The export is *canonical*: metrics appear in name order, doubles are
// printed with std::to_chars (shortest round-trip form). Exporting the
// same Registry contents therefore always produces the same bytes — the
// property the `--metrics-out` determinism test pins down.
//
// JSONL schema (one self-describing object per line, schema_version 1):
//   {"schema":"odtn.metrics.v1","name":N,"kind":"counter","value":V}
//   {"schema":"odtn.metrics.v1","name":N,"kind":"histogram",
//    "count":C,"sum":S,"mean":M,"min":m,"max":X,
//    "p50":Q1,"p90":Q2,"p99":Q3,"buckets":[[lo,hi,count],...]}
//
// CSV columns: name,kind,value,count,sum,mean,min,max,p50,p90,p99
// (value for counters; the distribution columns for histograms).
#pragma once

#include <iosfwd>
#include <string>

#include "metrics/metrics.hpp"

namespace odtn::metrics {

void write_jsonl(std::ostream& os, const Registry& reg);
void write_csv(std::ostream& os, const Registry& reg);

/// JSONL export as a string (the determinism tests compare these bytes).
std::string to_jsonl(const Registry& reg);

/// Writes to `path`, picking the format from the extension: ".csv" → CSV,
/// anything else → JSONL. Throws std::runtime_error if the file cannot be
/// opened.
void write_file(const std::string& path, const Registry& reg);

/// Shortest round-trip decimal form of a double (std::to_chars); shared by
/// the writer and the bench JSON records so every emitted number is
/// byte-stable.
std::string format_double(double v);

}  // namespace odtn::metrics
