#include "driver/report.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/textfile.hpp"
#include "common/version.hpp"
#include "driver/sweep.hpp"
#include "trace/chrome.hpp"

namespace issr::driver {

namespace {

/// The flat utilization columns (schema v5): fixed projections of the
/// per-run metrics snapshot, one column each in the JSON rows and the
/// CSV. Runs that lack a subsystem (a single-CC run has no TCDM, a
/// single-cluster run no NoC) read deterministic zeros. Order is the
/// emission order.
constexpr const char* kUtilColumns[] = {
    "util_fpu_fmadd",     "util_ssr_lane",     "util_issr_lane",
    "util_dma",           "util_noc_link",     "tcdm_conflict_rate",
    "barrier_wait_frac",
};

/// Shortest round-trip decimal rendering of a double (JSON number):
/// the fewest significant digits whose strtod recovers the exact value,
/// so 0.05 emits as "0.05", not "0.050000000000000003".
std::string fmt_double(double v) {
  char buf[64];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Seeds render as fixed-width hex strings: full 64-bit values exceed
/// 2^53, and both JSON double parsers and CSV column type inference
/// (pandas, spreadsheets) would round a bare decimal — hex text stays a
/// string everywhere, so reproduce-from-results-file is exact.
std::string fmt_seed(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// scaling_efficiency per row: speedup over the row's single-cluster
/// twin — same scenario except the clusters axis and the interconnect/
/// steal settings a single-cluster run ignores — divided by the cluster
/// count. Single-cluster rows report 1; a multi-cluster row without a
/// twin in this result set reports 0 ("unknown": the sweep did not
/// include its baseline). Pure function of the result list, so reports
/// stay bytewise identical for any jobs/trace settings.
std::vector<double> scaling_efficiencies(
    const std::vector<ScenarioResult>& results) {
  const auto is_twin = [](const Scenario& base, const Scenario& s) {
    return base.clusters == 1 && base.kernel == s.kernel &&
           base.variant == s.variant && base.width == s.width &&
           base.family == s.family && base.density == s.density &&
           base.cores == s.cores && base.seed == s.seed;
  };
  std::vector<double> out(results.size(), 0.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Scenario& s = results[i].scenario;
    if (s.clusters <= 1) {
      out[i] = 1.0;
      continue;
    }
    for (const auto& base : results) {
      if (!is_twin(base.scenario, s)) continue;
      if (base.cycles == 0 || results[i].cycles == 0) break;
      out[i] = static_cast<double>(base.cycles) /
               (static_cast<double>(results[i].cycles) * s.clusters);
      break;
    }
  }
  return out;
}

void append_fields(std::string& out, const ScenarioResult& r,
                   double scaling_eff, const char* sep, const char* quote,
                   const char* kv, bool keyed) {
  const Scenario& s = r.scenario;
  const auto field = [&](const char* key, const std::string& value,
                         bool is_string, bool first = false) {
    if (!first) out += sep;
    if (keyed) {
      out += quote;
      out += key;
      out += quote;
      out += kv;
    }
    if (is_string) out += quote;
    out += value;
    if (is_string) out += quote;
  };
  field("kernel", to_string(s.kernel), true, true);
  field("variant", to_token(s.variant), true);
  field("index_bits", s.width == sparse::IndexWidth::kU16 ? "16" : "32",
        false);
  field("family", sparse::to_string(s.family), true);
  field("density", fmt_double(s.density), false);
  // Actual generated dimensions (torus/banded differ from the request).
  field("rows", fmt_u(r.rows), false);
  field("cols", fmt_u(r.cols), false);
  field("cores", fmt_u(s.cores), false);
  field("clusters", fmt_u(s.clusters), false);
  field("noc_links", fmt_u(s.noc_links), false);
  field("noc_latency", fmt_u(s.noc_latency), false);
  field("steal", s.steal ? "true" : "false", false);
  field("seed", fmt_seed(s.seed), true);
  field("nnz", fmt_u(r.nnz), false);
  field("ok", r.ok ? "true" : "false", false);
  // v6 row disposition: status tokens "ok" | "mismatch" | "fault" |
  // "skipped", and the machine-readable fault code ("" when the row ran
  // to completion). The full diagnostic payload is the nested "fault"
  // object (JSON only, faulted rows only).
  field("status", row_status(r), true);
  field("fault", r.fault ? sim::to_string(r.fault.code) : "", true);
  field("cycles", fmt_u(r.cycles), false);
  field("fpu_util", fmt_double(r.fpu_util), false);
  field("macs", fmt_u(r.macs), false);
  field("macs_per_cycle", fmt_double(r.macs_per_cycle), false);
  field("scaling_efficiency", fmt_double(scaling_eff), false);
  // Stall attribution: the bucket columns sum to core_cycles exactly.
  field("core_cycles", fmt_u(r.core_cycles), false);
  for (unsigned b = 0; b < trace::kNumBuckets; ++b) {
    const auto bucket = static_cast<trace::Bucket>(b);
    const std::string key = std::string("stall_") + trace::to_string(bucket);
    field(key.c_str(), fmt_u(r.stalls[bucket]), false);
  }
  // v5 flat utilization columns: projections of the metrics snapshot
  // (absent entries read 0 — see kUtilColumns).
  for (const char* name : kUtilColumns) {
    field(name, fmt_double(r.metrics.value(name)), false);
  }
}

/// The nested per-row `"metrics"` object (JSON only): the full harvest
/// catalog, counters as integers and gauges as round-trip doubles. The
/// flat columns above are projections of these same entries, so the two
/// views can never disagree.
void append_metrics_object(std::string& out, const metrics::Snapshot& m) {
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& e : m.entries()) {
    // Harvest snapshots carry no histograms; guard anyway so a future
    // histogram degrades to its scalar view instead of corrupting JSON.
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += e.name;
    out += "\": ";
    out += e.kind == metrics::Kind::kCounter
               ? fmt_u(e.count)
               : fmt_double(e.kind == metrics::Kind::kHistogram ? e.sum
                                                                : e.value);
  }
  out += "}";
}

/// The nested per-row `"fault_detail"` object (JSON only, faulted rows
/// only — a distinct key from the flat `fault` code column, so the row
/// object never carries duplicate keys): the diagnostic payload a
/// postmortem needs — code, message, detection cycle, the engine's last
/// next_event horizon, per-hart PCs, and the barrier/work-queue summary.
/// kCycleNever renders as the string "never" (the raw value exceeds
/// JSON's exactly-representable integer range). Hart lists are capped;
/// the row's own counters already carry the aggregate picture.
void append_fault_object(std::string& out, const sim::Fault& f) {
  out += ", \"fault_detail\": {\"code\": \"";
  out += sim::to_string(f.code);
  out += "\", \"message\": \"";
  out += trace::json_escape(f.message);
  out += "\", \"cycle\": " + fmt_u(f.cycle);
  out += ", \"last_next_event\": ";
  if (f.last_next_event == kCycleNever) {
    out += "\"never\"";
  } else {
    out += fmt_u(f.last_next_event);
  }
  if (!f.barrier.empty()) {
    out += ", \"barrier\": \"" + trace::json_escape(f.barrier) + "\"";
  }
  if (!f.harts.empty()) {
    constexpr std::size_t kMaxHarts = 64;
    out += ", \"harts\": [";
    for (std::size_t i = 0; i < f.harts.size() && i < kMaxHarts; ++i) {
      const auto& h = f.harts[i];
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "%s{\"cluster\": %u, \"hart\": %u, \"pc\": \"0x%llx\", "
                    "\"halted\": %s}",
                    i ? ", " : "", h.cluster, h.hart,
                    static_cast<unsigned long long>(h.pc),
                    h.halted ? "true" : "false");
      out += buf;
    }
    out += "]";
  }
  out += "}";
}

/// The stall column names, joined for the CSV header.
std::string stall_csv_columns() {
  std::string out = "core_cycles";
  for (unsigned b = 0; b < trace::kNumBuckets; ++b) {
    out += ",stall_";
    out += trace::to_string(static_cast<trace::Bucket>(b));
  }
  return out;
}

}  // namespace

std::string results_to_json(const std::vector<ScenarioResult>& results) {
  std::string out;
  // Build the whole document in one buffer (write_text_file then issues
  // a single stream write). ~1.3 KiB covers a keyed row with every stall
  // and metrics field; the reserve makes growth a no-op for typical
  // sweeps.
  out.reserve(512 + 1400 * results.size());
  out += "{\n  \"schema\": \"issr_run.results.v6\",\n";
  // Engine provenance: static build facts only — the revision, the
  // build type, LTO, and the compiled-in fast-forward default. Runtime
  // knobs (--no-fast-forward, --jobs, caching) are deliberately absent:
  // result documents stay a pure function of the scenario matrix, and CI
  // byte-diffs them across every runtime configuration.
  out += "  \"engine\": {\"version\": \"" +
         trace::json_escape(engine_version()) + "\", \"build_type\": \"" +
         trace::json_escape(engine_build_type()) + "\", \"lto\": " +
         (engine_build_lto() ? "true" : "false") +
         ", \"fast_forward_default\": " +
         (engine_build_fast_forward_default() ? "true" : "false") + "},\n";
  out += "  \"results\": [";
  const auto eff = scaling_efficiencies(results);
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += i ? ",\n    {" : "\n    {";
    append_fields(out, results[i], eff[i], ", ", "\"", ": ", /*keyed=*/true);
    append_metrics_object(out, results[i].metrics);
    if (results[i].fault) append_fault_object(out, results[i].fault);
    out += "}";
  }
  out += results.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string results_to_csv(const std::vector<ScenarioResult>& results) {
  std::string util_columns;
  for (const char* name : kUtilColumns) {
    util_columns += ",";
    util_columns += name;
  }
  std::string out =
      "kernel,variant,index_bits,family,density,rows,cols,cores,clusters,"
      "noc_links,noc_latency,steal,seed,nnz,ok,status,fault,cycles,fpu_util,"
      "macs,macs_per_cycle,scaling_efficiency," +
      stall_csv_columns() + util_columns + "\n";
  out.reserve(out.size() + 256 * results.size());
  const auto eff = scaling_efficiencies(results);
  for (std::size_t i = 0; i < results.size(); ++i) {
    append_fields(out, results[i], eff[i], ",", "", "", /*keyed=*/false);
    out += "\n";
  }
  return out;
}

Table results_table(const std::vector<ScenarioResult>& results) {
  Table t("issr_run sweep results");
  t.set_header({"scenario", "rows", "cols", "nnz", "cycles", "FPU util",
                "MACs/cycle", "ok", "status"});
  for (const auto& r : results) {
    t.add_row({r.scenario.name(), fmt_u(r.rows),
               fmt_u(r.cols), fmt_u(r.nnz), fmt_u(r.cycles),
               fmt_f(r.fpu_util), fmt_f(r.macs_per_cycle),
               r.ok ? "yes" : "NO", row_status(r)});
  }
  return t;
}

double paper_util_reference(kernels::Variant v, sparse::IndexWidth w) {
  // The paper's Fig. 4a single-cluster SpVV FPU-utilization anchors —
  // the same constants bench/fig4a_spvv_util.cpp validates against.
  switch (v) {
    case kernels::Variant::kBase:
      return 0.11;
    case kernels::Variant::kSsr:
      return 0.14;
    case kernels::Variant::kIssr:
      return w == sparse::IndexWidth::kU16 ? 0.80 : 0.67;
  }
  return 0.0;
}

Table perf_report_table(const std::vector<ScenarioResult>& results) {
  Table t("perf report (bottleneck diagnosis per scenario)");
  t.set_header({"scenario", "FPU util", "paper ref", "vs ref", "bottleneck",
                "frac", "NoC link", "TCDM confl"});
  for (const auto& r : results) {
    // Dominant stall bucket: the largest non-useful-work bucket — where
    // this scenario's cycles actually went.
    trace::Bucket worst = trace::Bucket::kIssue;
    std::uint64_t worst_count = 0;
    for (unsigned b = 0; b < trace::kNumBuckets; ++b) {
      const auto bucket = static_cast<trace::Bucket>(b);
      if (bucket == trace::Bucket::kFpCompute) continue;
      if (r.stalls[bucket] > worst_count) {
        worst_count = r.stalls[bucket];
        worst = bucket;
      }
    }
    // The FPU-utilization cell reads the metrics registry — the same
    // entry the benches report — so the report and the benches can never
    // disagree about the headline number.
    const double util = r.metrics.value("util_fpu");
    // The Fig. 4a anchors describe single-CC SpVV only; every other
    // kernel or shape has no paper reference to compare against.
    std::string ref_cell = "-", vs_ref_cell = "-";
    if (r.scenario.kernel == Kernel::kSpvv && r.scenario.cores == 1 &&
        r.scenario.clusters == 1) {
      const double ref =
          paper_util_reference(r.scenario.variant, r.scenario.width);
      ref_cell = fmt_f(ref, 2);
      vs_ref_cell = fmt_f(util / ref, 2);
    }
    t.add_row({r.scenario.name(), fmt_f(util), ref_cell, vs_ref_cell,
               trace::to_string(worst), fmt_f(r.stalls.fraction(worst)),
               fmt_f(r.metrics.value("util_noc_link")),
               fmt_f(r.metrics.value("tcdm_conflict_rate"))});
  }
  return t;
}

Table stall_table(const std::vector<ScenarioResult>& results) {
  Table t("stall attribution (fraction of core-cycles)");
  std::vector<std::string> header = {"scenario", "core_cycles"};
  for (unsigned b = 0; b < trace::kNumBuckets; ++b) {
    header.push_back(trace::to_string(static_cast<trace::Bucket>(b)));
  }
  t.set_header(header);
  for (const auto& r : results) {
    std::vector<std::string> row = {r.scenario.name(), fmt_u(r.core_cycles)};
    for (unsigned b = 0; b < trace::kNumBuckets; ++b) {
      row.push_back(
          fmt_f(r.stalls.fraction(static_cast<trace::Bucket>(b))));
    }
    t.add_row(row);
  }
  return t;
}

std::string list_scenarios_text(const std::vector<Scenario>& scenarios,
                                unsigned reps) {
  reps = reps == 0 ? 1 : reps;
  std::string out;
  char buf[256];
  bool derived_shape = false;
  double total_cost = 0.0;
  for (const auto& s : scenarios) {
    // Torus (fixed 5-point grid) and banded (square) derive their
    // actual shape from the request; results files record actual dims.
    const bool derived = s.family == sparse::MatrixFamily::kTorus ||
                         s.family == sparse::MatrixFamily::kBanded;
    derived_shape |= derived;
    // The cost column IS the scheduler's dispatch key: estimated_cost()
    // covers the cluster-ness multiplicity (x load replication,
    // barrier/bandwidth overhead per cluster), so a multi-cluster row
    // can never print a single-cluster cost.
    const double cost = estimated_cost(s);
    total_cost += cost;
    std::snprintf(buf, sizeof buf,
                  "%s  rows=%u cols=%u target_nnz/row=%u%s "
                  "seed=0x%016llx cost=%.0f\n",
                  s.name().c_str(), s.rows, s.cols, s.row_nnz(),
                  derived ? " (shape derived by family)" : "",
                  static_cast<unsigned long long>(s.seed), cost);
    out += buf;
  }
  // Reps multiply every scenario's cost — the total must predict the
  // scheduler's whole task set, not just the first rep of each scenario.
  std::snprintf(buf, sizeof buf,
                "%zu scenarios, %u rep%s, total estimated cost %.0f "
                "(relative units; the sweep scheduler dispatches "
                "longest-expected-first)\n",
                scenarios.size(), reps, reps == 1 ? "" : "s",
                total_cost * reps);
  out += buf;
  if (derived_shape) {
    out +=
        "note: torus/banded families derive their (square) shape from "
        "the request; the listed rows/cols are the generated dimensions\n";
  }
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  return issr::write_text_file(path, content);
}

}  // namespace issr::driver
