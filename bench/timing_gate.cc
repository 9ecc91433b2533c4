// TimingGate and the build facts it arms on (declared in suites.h).
#include "bench/suites.h"

#include <cstdio>
#include <thread>
#include <utility>

#include "util/kernels.h"

namespace aigs::bench {
namespace {

/// True when assertions are compiled out: CMake's optimized build types.
bool OptimizedBuild() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

}  // namespace

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

TimingGate::TimingGate(SuiteContext& ctx, std::string name,
                       const Arming& arming)
    : ctx_(ctx), name_(std::move(name)) {
  const unsigned cores = std::thread::hardware_concurrency();
  if (arming.optimized && !OptimizedBuild()) {
    skip_reason_ = "debug build";
  } else if (arming.unsanitized && SanitizedBuild()) {
    skip_reason_ = "sanitized build";
  } else if (arming.full_scale && ctx.smoke) {
    skip_reason_ = "smoke scale";
  } else if (cores < arming.min_cores) {
    skip_reason_ = std::to_string(cores) + " core(s), needs " +
                   std::to_string(arming.min_cores);
  } else if (arming.simd &&
             !(kernels::CpuSupports(kernels::Mode::kAvx2) &&
               kernels::ActiveMode() != kernels::Mode::kScalar)) {
    skip_reason_ = "scalar kernels active";
  }
}

void TimingGate::FailIf(bool tripped, const std::string& failure) {
  if (!tripped || !armed()) {
    return;
  }
  failed_ = true;
  std::fprintf(stderr, "timing gate '%s' failed: %s\n", name_.c_str(),
               failure.c_str());
  ctx_.timing_failures.push_back(name_ + ": " + failure);
}

void TimingGate::Finish(const std::string& claim) const {
  if (!armed()) {
    std::printf("%s gate skipped (%s)\n", name_.c_str(),
                skip_reason_.c_str());
  } else if (!failed_) {
    std::printf("%s: OK\n", claim.c_str());
  }
  std::printf("\n");
}

}  // namespace aigs::bench
