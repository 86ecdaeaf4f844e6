// evq-bench — the unified driver for every reproduced figure, in-text
// table, ablation and extension experiment (src/harness/scenario.hpp).
//
//   evq-bench list                     # scenarios with one-line summaries
//   evq-bench run fig6a fig6b          # named scenarios, CI-scale defaults
//   evq-bench run --all                # the full measurement suite
//   evq-bench run fig6a --csv          # legacy per-figure CSV (byte-compatible
//                                      # with the retired bench_fig6a binary)
//   evq-bench run --all --json out.json  # versioned JSON perf document
//
// Flags after the scenario names (see harness/cli.hpp) override each
// scenario's own defaults; only flags the user actually set are applied, so
// `run --all --runs 5` raises every scenario's repetition count without
// flattening their distinct sweeps.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "evq/harness/bench_json.hpp"
#include "evq/harness/scenario.hpp"
#include "evq/trace/chrome_trace.hpp"
#include "evq/trace/trace.hpp"

namespace {

using namespace evq::harness;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: evq-bench list\n"
               "       evq-bench run <scenario>... [flags]\n"
               "       evq-bench run --all [flags]\n"
               "flags: --threads a,b,c  --iters N  --runs R  --burst B  --capacity C\n"
               "       --csv  --paper  --latency-sample N  --stable-cv PCT\n"
               "       --max-runs N  --op-stats  --telemetry  --health  --perf\n"
               "       --json PATH ('-' = stdout)  --trace PATH  --trace-sample N\n"
               "`evq-bench list` prints the available scenarios.\n");
  std::exit(2);
}

int cmd_list() {
  for (const ScenarioSpec& spec : all_scenarios()) {
    std::printf("%-20s %s\n", spec.name.c_str(), spec.summary.c_str());
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  // Scenario names come first; the first --flag starts the overrides.
  std::vector<std::string> names;
  int flags_at = 2;
  bool all = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--all") == 0) {
      all = true;
      flags_at = i + 1;
    } else if (argv[i][0] == '-') {
      break;
    } else {
      names.emplace_back(argv[i]);
      flags_at = i + 1;
    }
  }
  if (all != names.empty()) {  // exactly one of --all / explicit names
    usage();
  }
  const CliOverrides overrides = parse_overrides(argc, argv, flags_at);

  // Tracing spans the whole command: sampling goes live before the first
  // scenario and the export at the end covers the surviving ring window
  // (newest ~4096 spans per thread). --trace-sample alone enables recording
  // without an export — that is what the layer-overhead trace A/B uses.
  unsigned trace_every = overrides.trace_sample_every.value_or(0);
  if (trace_every == 0 && !overrides.trace_path.empty()) {
    trace_every = 64;
  }
  if (trace_every != 0) {
    evq::trace::set_sampling(trace_every);
  }

  std::vector<const ScenarioSpec*> specs;
  if (all) {
    for (const ScenarioSpec& spec : all_scenarios()) {
      specs.push_back(&spec);
    }
  } else {
    for (const std::string& name : names) {
      specs.push_back(&find_scenario(name));
    }
  }

  std::vector<ScenarioResult> results;
  std::vector<CliOptions> options;
  bool first = true;
  for (const ScenarioSpec* spec : specs) {
    const CliOptions opts = scenario_options(*spec, overrides);
    if (!first) {
      std::printf("\n");
    }
    first = false;
    const ScenarioResult result = run_scenario(*spec, opts);
    print_scenario(*spec, result, opts);
    results.push_back(result);
    options.push_back(opts);
  }

  if (!overrides.json_path.empty()) {
    const std::string doc = bench_results_to_json(current_host_info(), results, options);
    if (overrides.json_path == "-") {
      std::fwrite(doc.data(), 1, doc.size(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::FILE* f = std::fopen(overrides.json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "evq-bench: cannot open '%s' for writing\n",
                     overrides.json_path.c_str());
        return 1;
      }
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::fprintf(stderr, "# wrote %s\n", overrides.json_path.c_str());
    }
  }

  if (!overrides.trace_path.empty()) {
    std::ofstream out(overrides.trace_path);
    if (!out) {
      std::fprintf(stderr, "evq-bench: cannot open '%s' for writing\n",
                   overrides.trace_path.c_str());
      return 1;
    }
    evq::trace::export_chrome_trace(out);
    std::fprintf(stderr, "# wrote %s (open in https://ui.perfetto.dev)\n",
                 overrides.trace_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
  }
  if (std::strcmp(argv[1], "list") == 0) {
    return cmd_list();
  }
  if (std::strcmp(argv[1], "run") == 0) {
    return cmd_run(argc, argv);
  }
  usage();
}
