// The paper's evaluation figures (Sec. V, Figs. 4-19) as one table.
//
// Every figure is the same experiment: it sweeps one Table II knob along x
// and a second one across the series, and prints the analysis and
// simulation columns of one metric family side by side. CMake compiles this
// file once and links it into one binary per figure (fig04_... to
// fig19_...); a binary runs the row named after it, the same name
// bench::finish records as the --json figure_id. Runs go x outer, series
// inner, so the --metrics-out fold order is the table's reading order.
#include <cmath>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "trace/synthetic.hpp"

namespace odtn::bench {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;

// A Table II knob a figure sets: along x, across the series, or as a base
// override. A series label prints the value times `label_scale`, so the
// compromised fraction reads as a percentage (c10 for 0.10).
struct Knob {
  void (*set)(ExperimentConfig&, double);
  double label_scale = 1.0;
};

std::size_t count(double v) { return static_cast<std::size_t>(v); }

const Knob kTtl{[](ExperimentConfig& c, double v) { c.ttl = v; }};
const Knob kGroupSize{
    [](ExperimentConfig& c, double v) { c.group_size = count(v); }};
const Knob kRelays{
    [](ExperimentConfig& c, double v) { c.num_relays = count(v); }};
const Knob kCopies{[](ExperimentConfig& c, double v) { c.copies = count(v); }};
const Knob kCompromised{
    [](ExperimentConfig& c, double v) { c.compromise_fraction = v; }, 100.0};

struct Setting {
  Knob knob;
  double value;
};

struct Axis {
  const char* column;
  std::vector<double> values;
  Knob knob;
  XFormat format;
};

struct Series {
  Knob knob;
  std::vector<double> values;
  const char* label;  // column suffix prefix: g, K, L or c
};

// One printed column: a result statistic's mean at `digits` decimals.
struct Column {
  const char* name;
  util::RunningStats ExperimentResult::*stat;
  int digits = 4;
};

// A metric family: the columns each series prints (named <name>_<series
// label><value>), after any `lead` columns read once per x from the first
// series' run.
struct Family {
  std::vector<Column> lead;
  std::vector<Column> per_series;
};

const Family kDelivery{{},
                       {{"ana", &ExperimentResult::ana_delivery},
                        {"sim", &ExperimentResult::sim_delivered}}};
// The paper's approximation (Eqs. 8-12), the exact run-length
// expectation, and the simulation.
const Family kTraceable{{},
                        {{"paper", &ExperimentResult::ana_traceable_paper},
                         {"exact", &ExperimentResult::ana_traceable_exact},
                         {"sim", &ExperimentResult::sim_traceable}}};
const Family kAnonymity{{},
                        {{"ana", &ExperimentResult::ana_anonymity},
                         {"sim", &ExperimentResult::sim_anonymity}}};
// The non-anonymous reference 2L (it does not depend on K), then the
// analytical bound (K+2)L and the simulated cost per K.
const Family kCost{
    {{"non_anonymous", &ExperimentResult::ana_cost_non_anonymous, 1}},
    {{"ana", &ExperimentResult::ana_cost_bound, 1},
     {"sim", &ExperimentResult::sim_transmissions, 2}}};

struct Figure {
  const char* binary;
  const char* label;
  const char* title;
  const char* fixed;
  // Builds the contact trace from --seed; null runs random contact graphs.
  trace::ContactTrace (*make_trace)(std::uint64_t seed);
  std::vector<Setting> base;
  Axis x;
  Series series;
  const Family* family;
};

const std::vector<double> kOneToTen = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
constexpr double kDay = 86400.0;

// ttl = 1e6 (or the whole trace) measures security and cost on delivered
// paths and completed forwarding processes.
const std::vector<Figure>& figures() {
  static const std::vector<Figure> table = {
      // Single-copy, K = 3. Paper claim: larger onion groups bring more
      // forwarding opportunities, so delivery rises with g; the analysis
      // (Eq. 6) tracks the simulation.
      {"fig04_delivery_vs_deadline_group", "Figure 4",
       "Delivery rate w.r.t. deadline", "n=100, K=3, L=1, g in {1,5,10}",
       nullptr, {},
       {"deadline_min", deadline_sweep(), kTtl, XFormat::kInt},
       {kGroupSize, {1, 5, 10}, "g"}, &kDelivery},
      // Single-copy, g = 5. Paper claim: fewer onion relays -> higher
      // delivery (shorter paths); the analysis shows the same trend as
      // simulation with a visible gap.
      {"fig05_delivery_vs_deadline_onions", "Figure 5",
       "Delivery rate w.r.t. deadline", "n=100, g=5, L=1, K in {3,5,10}",
       nullptr, {},
       {"deadline_min", deadline_sweep(), kTtl, XFormat::kInt},
       {kRelays, {3, 5, 10}, "K"}, &kDelivery},
      // Paper claim: traceable rate grows with the compromised fraction
      // and shrinks with more onion relays.
      {"fig06_traceable_vs_compromised", "Figure 6",
       "Traceable rate w.r.t. compromised rate",
       "n=100, g=5, L=1, K in {3,5,10}", nullptr, {{kTtl, 1e6}},
       {"compromised", compromise_sweep(), kCompromised,
        XFormat::kFixed2},
       {kRelays, {3, 5, 10}, "K"}, &kTraceable},
      // Paper claim: adversaries trace smaller portions of a path as K
      // grows.
      {"fig07_traceable_vs_onions", "Figure 7",
       "Traceable rate w.r.t. number of onion relays",
       "n=100, g=5, L=1, c/n in {10,20,30}%", nullptr, {{kTtl, 1e6}},
       {"num_relays", kOneToTen, kRelays, XFormat::kInt},
       {kCompromised, {0.10, 0.20, 0.30}, "c"}, &kTraceable},
      // Single-copy, K = 3. Paper claim: larger onion groups preserve more
      // anonymity because a compromised hop only confines the next router
      // to its group (1/g guess), and the analysis matches simulation
      // closely.
      {"fig08_anonymity_vs_compromised", "Figure 8",
       "Path anonymity w.r.t. compromised rate",
       "n=100, K=3, L=1, g in {1,5,10}", nullptr, {{kTtl, 1e6}},
       {"compromised", compromise_sweep(), kCompromised,
        XFormat::kFixed2},
       {kGroupSize, {1, 5, 10}, "g"}, &kAnonymity},
      // Single-copy, K = 3. Paper claim: anonymity gradually increases
      // with g.
      {"fig09_anonymity_vs_group", "Figure 9",
       "Path anonymity w.r.t. group size",
       "n=100, K=3, L=1, c/n in {10,20,30}%", nullptr, {{kTtl, 1e6}},
       {"group_size", kOneToTen, kGroupSize, XFormat::kInt},
       {kCompromised, {0.10, 0.20, 0.30}, "c"}, &kAnonymity},
      // Multi-copy, K = 3, g = 5 (so L <= g holds as in the paper). Paper
      // claim: more copies -> more forwarding opportunities -> higher
      // delivery; Eq. 7 shows the same trend as simulation.
      {"fig10_delivery_vs_deadline_copies", "Figure 10",
       "Delivery rate w.r.t. deadline (multi-copy)",
       "n=100, K=3, g=5, L in {1,3,5}", nullptr, {},
       {"deadline_min", deadline_sweep(), kTtl, XFormat::kInt},
       {kCopies, {1, 3, 5}, "L"}, &kDelivery},
      // Paper claim: anonymity is bought with transmissions; analysis and
      // simulation are very close, both far above the non-anonymous cost.
      {"fig11_cost_vs_copies", "Figure 11",
       "Message transmissions w.r.t. copies", "n=100, g=5, K in {3,10}",
       nullptr, {{kTtl, 1e6}},
       {"copies", {1, 2, 3, 4, 5}, kCopies, XFormat::kInt},
       {kRelays, {3, 10}, "K"}, &kCost},
      // g = 5, K = 3. Paper claim: anonymity decreases as L grows — copies
      // traverse the same onion groups, so adversaries correlate path
      // information; the model (Eq. 20) matches simulation for small c/n
      // and drifts apart beyond ~30%.
      {"fig12_anonymity_vs_compromised_copies", "Figure 12",
       "Path anonymity w.r.t. compromised rate (multi-copy)",
       "n=100, K=3, g=5, L in {1,3,5}", nullptr, {{kTtl, 1e6}},
       {"compromised", compromise_sweep(), kCompromised,
        XFormat::kFixed2},
       {kCopies, {1, 3, 5}, "L"}, &kAnonymity},
      // K = 3, c/n = 10%. Paper claim: analysis and simulation are very
      // close across group sizes; multi-copy anonymity stays below
      // single-copy at every g.
      {"fig13_anonymity_vs_group_copies", "Figure 13",
       "Path anonymity w.r.t. group size (multi-copy)",
       "n=100, K=3, c/n=10%, L in {1,3}", nullptr,
       {{kTtl, 1e6}, {kCompromised, 0.10}},
       {"group_size", kOneToTen, kGroupSize, XFormat::kInt},
       {kCopies, {1, 3}, "L"}, &kAnonymity},
      // The Cambridge-like trace (12 nodes, dense business-hour contacts;
      // stands in for CRAWDAD cambridge/haggle Experiment 2 — see
      // DESIGN.md §4), configured as in the paper: K = 3, g = 1, L = 1.
      // Paper claim: the trace is dense, so delivery reaches ~100% within
      // about 1800 s of business time; the trained analysis shows the same
      // trend.
      {"fig14_cambridge_delivery", "Figure 14",
       "Delivery rate w.r.t. deadline (Cambridge)",
       "12 nodes, K=3, g=1, L=1, synthetic Cambridge-like trace",
       trace::make_cambridge_like,
       {{kGroupSize, 1}, {kRelays, 3}, {kCopies, 1}},
       {"deadline_sec", {120, 300, 600, 900, 1200, 1800, 2700, 3600, 7200},
        kTtl, XFormat::kInt},
       {kCopies, {1}, "L"}, &kDelivery},
      // Paper claim: the security model is independent of inter-contact
      // times, so the analysis approximates the trace simulation closely
      // too.
      {"fig15_cambridge_traceable", "Figure 15",
       "Traceable rate w.r.t. compromised rate (Cambridge)",
       "12 nodes, K=3, g=1, L=1", trace::make_cambridge_like,
       {{kGroupSize, 1}, {kRelays, 3}, {kCopies, 1}, {kTtl, 5 * kDay}},
       {"compromised", compromise_sweep(), kCompromised,
        XFormat::kFixed2},
       {kRelays, {3}, "K"}, &kTraceable},
      // Paper claim: anonymity decreases linearly with the compromised
      // fraction and the analysis matches the trace simulation closely
      // (the metric is independent of inter-meeting times).
      {"fig16_cambridge_anonymity", "Figure 16",
       "Path anonymity w.r.t. compromised rate (Cambridge)",
       "12 nodes, K=3, g=1, L=1", trace::make_cambridge_like,
       {{kGroupSize, 1}, {kRelays, 3}, {kCopies, 1}, {kTtl, 5 * kDay}},
       {"compromised", compromise_sweep(), kCompromised,
        XFormat::kFixed2},
       {kCopies, {1}, "L"}, &kAnonymity},
      // The Infocom'05-like trace (41 nodes, session-structured contacts;
      // stands in for CRAWDAD cambridge/haggle Experiment 3 — see
      // DESIGN.md §4), deadlines on a log scale. Paper claims: (a)
      // delivery plateaus across contact gaps (the model does not know
      // about off-hours, so it overshoots there but keeps the trend for
      // L = 1); (b) extra copies gain little — path diversity through
      // onion groups is contact-limited.
      {"fig17_infocom_delivery", "Figure 17",
       "Delivery rate w.r.t. deadline (Infocom'05, log scale)",
       "41 nodes, K=3, g=5, L in {1,3,5}", trace::make_infocom_like,
       {{kGroupSize, 5}, {kRelays, 3}},
       {"deadline_sec", {64, 256, 1024, 4096, 16384, 65536, 262144}, kTtl,
        XFormat::kInt},
       {kCopies, {1, 3, 5}, "L"}, &kDelivery},
      // Paper claim: the difference between analysis and simulation stays
      // within a few percent — the traceable-rate model depends only on K
      // and c/n.
      {"fig18_infocom_traceable", "Figure 18",
       "Traceable rate w.r.t. compromised rate (Infocom'05)",
       "41 nodes, K=3, g=5, L=1", trace::make_infocom_like,
       {{kGroupSize, 5}, {kRelays, 3}, {kCopies, 1}, {kTtl, 3 * kDay}},
       {"compromised", compromise_sweep(), kCompromised,
        XFormat::kFixed2},
       {kRelays, {3}, "K"}, &kTraceable},
      // Paper claims: L = 1 matches the model almost perfectly; L = 3
      // matches up to ~30% compromised; L = 5 sits only slightly below
      // L = 3 because copies tend to traverse the same relays in a
      // contact-limited trace.
      {"fig19_infocom_anonymity", "Figure 19",
       "Path anonymity w.r.t. compromised rate (Infocom'05)",
       "41 nodes, K=3, g=5, L in {1,3,5}", trace::make_infocom_like,
       {{kGroupSize, 5}, {kRelays, 3}, {kTtl, 3 * kDay}},
       {"compromised", compromise_sweep(), kCompromised,
        XFormat::kFixed2},
       {kCopies, {1, 3, 5}, "L"}, &kAnonymity},
  };
  return table;
}

const Figure& figure_named(const std::string& binary) {
  for (const Figure& fig : figures()) {
    if (binary == fig.binary) return fig;
  }
  throw std::invalid_argument("no paper figure is named " + binary);
}

std::vector<std::string> columns(const Figure& fig) {
  std::vector<std::string> out = {fig.x.column};
  for (const Column& col : fig.family->lead) out.push_back(col.name);
  for (double v : fig.series.values) {
    const std::string suffix =
        std::string("_") + fig.series.label +
        std::to_string(std::llround(v * fig.series.knob.label_scale));
    for (const Column& col : fig.family->per_series) {
      out.push_back(col.name + suffix);
    }
  }
  return out;
}

void cells(const std::vector<Column>& cols, const ExperimentResult& r,
           util::Table& table) {
  for (const Column& col : cols) table.cell((r.*col.stat).mean(), col.digits);
}

}  // namespace
}  // namespace odtn::bench

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto base = bench::base_config(args);
  const bench::Figure& fig = bench::figure_named(bench::figure_id(args));
  for (const bench::Setting& s : fig.base) s.knob.set(base, s.value);
  bench::print_header(fig.label, fig.title, fig.fixed, base);

  std::optional<trace::ContactTrace> trace;
  if (fig.make_trace != nullptr) trace = fig.make_trace(base.seed);
  const core::Scenario scenario =
      trace ? core::Scenario{core::TraceScenario{&*trace}}
            : core::Scenario{core::RandomGraphScenario{}};

  bench::print_sweep(bench::columns(fig), fig.x.values, fig.x.format,
                     [&](double x, util::Table& table) {
    const auto& series = fig.series.values;
    for (std::size_t i = 0; i < series.size(); ++i) {
      auto cfg = base;
      fig.series.knob.set(cfg, series[i]);
      fig.x.knob.set(cfg, x);
      auto r = bench::run_experiment(cfg, scenario);
      if (i == 0) bench::cells(fig.family->lead, r, table);
      bench::cells(fig.family->per_series, r, table);
    }
  });
  bench::finish(base, args, timer);
  return 0;
}
