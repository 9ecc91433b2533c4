// Named experiment suites of the unified bench harness. Each suite is the
// config-driven successor of one former bench_* binary: it builds
// ScenarioSpec rows (dataset × distribution × policy × cost model ×
// threads), runs them through the shared scenario engine, prints the
// familiar ASCII table, and adds its cost rows and perf records to the
// run's JSON/CSV sink.
#ifndef AIGS_BENCH_SUITES_H_
#define AIGS_BENCH_SUITES_H_

#include <string>
#include <vector>

#include "bench/scenario.h"

namespace aigs::bench {

/// Shared run configuration handed to every suite.
struct SuiteContext {
  /// Base dataset scale (fraction of Table II size).
  double scale = 0.25;
  /// Repetitions for randomized distributions / prices.
  std::size_t reps = 3;
  /// Evaluator worker count (0 = shared default pool).
  int threads = 0;
  /// Minimal configuration: every suite shrinks to one repetition and its
  /// smallest sweep so CI can exercise all policies cheaply.
  bool smoke = false;
  /// Dataset cache shared across suites in one invocation.
  DatasetCache* cache = nullptr;
  /// Cost rows, in run order (the --json / --csv / --baseline sink).
  std::vector<ScenarioResult> results;
  /// Latencies, rates and sizes, in run order (--json / --baseline).
  std::vector<PerfRecord> perf;
  /// One message per tripped TimingGate; a trip never stops a suite.
  std::vector<std::string> timing_failures;
};

/// True under ASan or TSan, where every allocation and syscall is
/// instrumented and mallinfo2 does not see the sanitizer's allocator.
bool SanitizedBuild();

/// One wall-clock target of a suite, checked by one or more FailIf calls.
/// It is armed only where the target means anything: by default on an
/// optimized, unsanitized build, plus the gate's own rule. A disarmed gate
/// prints why and never fails. An armed gate that trips adds a message to
/// `SuiteContext::timing_failures` and the suite runs on, so a timing trip
/// never hides a later cost row or identity check.
class TimingGate {
 public:
  struct Arming {
    bool optimized = true;    // an optimized build
    bool unsanitized = true;  // no ASan/TSan
    bool full_scale = false;  // not a smoke run
    unsigned min_cores = 0;   // at least this many hardware threads
    bool simd = false;        // an AVX2+ kernel table active
  };

  TimingGate(SuiteContext& ctx, std::string name, const Arming& arming);

  bool armed() const { return skip_reason_.empty(); }

  /// On an armed gate, records `failure` when `tripped`.
  void FailIf(bool tripped, const std::string& failure);

  /// Prints "<claim>: OK", or why the gate did not run. A failure was
  /// already printed by FailIf.
  void Finish(const std::string& claim) const;

 private:
  SuiteContext& ctx_;
  std::string name_;
  std::string skip_reason_;
  bool failed_ = false;
};

struct Suite {
  std::string name;
  std::string help;
  /// An error status is a failed deterministic check (or a failed run);
  /// timing gates report through SuiteContext::timing_failures instead.
  Status (*fn)(SuiteContext&);
};

/// Every registered suite, in presentation order.
const std::vector<Suite>& AllSuites();

/// Lookup by name; null when unknown.
const Suite* FindSuite(const std::string& name);

}  // namespace aigs::bench

#endif  // AIGS_BENCH_SUITES_H_
