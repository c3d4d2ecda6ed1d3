// fault_campaign: configure and run a fault-injection campaign against the
// hypervisor — scenario picked from the registry, runs sharded across
// executor threads, analytics from the streaming log sink — the full
// Figure 2 pipeline in ~60 lines of user code.
//
//   $ ./fault_campaign [scenario] [runs] [rate] [seed] [threads] [tuning]
//   $ ./fault_campaign --list           # show registered scenarios
//
// [tuning] parameterises the workload cell in the config-text vocabulary,
// ';'-separated, e.g. "ram 0x200000; console trapped".
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/report.hpp"
#include "core/executor.hpp"

int main(int argc, char** argv) {
  using namespace mcs;

  fi::ScenarioRegistry& registry = fi::ScenarioRegistry::instance();
  if (argc > 1 && std::string(argv[1]) == "--list") {
    std::cout << "registered scenarios:\n";
    for (const std::string& name : registry.names()) {
      std::cout << "  " << name << " — " << registry.find(name)->description()
                << "\n";
    }
    return 0;
  }

  const std::string scenario_name =
      argc > 1 ? argv[1] : std::string(fi::kDefaultScenario);
  fi::ScenarioRegistry::MakeOptions options;
  if (argc > 6) {
    options.cell_tuning = argv[6];
    std::replace(options.cell_tuning.begin(), options.cell_tuning.end(), ';',
                 '\n');
  }
  auto made = registry.make(scenario_name, options);
  if (!made.is_ok()) {
    std::cerr << made.status().to_string() << " (try --list)\n";
    return 1;
  }

  fi::TestPlan plan = made.value();
  plan.runs = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 40;
  plan.rate = fi::kMediumRate;
  if (argc > 3) {
    // The injector injects on every rate-th call: 0 or a non-number is no
    // cadence at all.
    char* end = nullptr;
    const unsigned long rate = std::strtoul(argv[3], &end, 10);
    if (end == argv[3] || *end != '\0' || rate == 0 || rate > UINT32_MAX) {
      std::cerr << "bad rate '" << argv[3] << "': must be an integer >= 1\n";
      return 1;
    }
    plan.rate = static_cast<std::uint32_t>(rate);
  }
  // strtoull base 0: accepts both decimal and the documented 0x... form.
  plan.seed = argc > 4 ? std::strtoull(argv[4], nullptr, 0) : 0xC0FFEEULL;
  // Paper-faithful 1-minute tests (60'000 board ticks).

  fi::ExecutorConfig config;
  config.threads = argc > 5 ? static_cast<unsigned>(std::atoi(argv[5])) : 0;

  std::cout << "campaign: " << plan.name << " — scenario " << plan.scenario
            << ", " << plan.runs << " runs, inject 1/" << plan.rate
            << " calls, seed 0x" << std::hex << plan.seed << std::dec;
  if (!plan.cell_tuning.empty()) std::cout << ", tuned cell";
  std::cout << "\n\n";

  // The sink streams run lines in order (whatever the shard completion
  // order was) and keeps the mergeable aggregates for the analytics.
  analysis::LogSink sink(std::cout);
  fi::CampaignExecutor executor(plan, config);
  executor.set_progress(
      [&sink](std::uint32_t index, const fi::RunResult& run) {
        sink.record(index, run);
      });
  const fi::CampaignResult result = executor.execute();

  const analysis::CampaignAggregate aggregate = sink.aggregate();
  std::cout << "\n"
            << analysis::render_distribution_table(aggregate.distribution)
            << "\n";
  std::cout << analysis::render_latency_summary(aggregate.detection_latency);
  std::cout << result.runs.size() << " runs, " << aggregate.injections
            << " injections total\n";
  return 0;
}
