#include "eval/batch.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace linesearch {

std::vector<CrEvalResult> measure_cr_batch(const std::vector<CrBatchJob>& jobs,
                                           const BatchOptions& batch) {
  for (const CrBatchJob& job : jobs) {
    expects(job.fleet != nullptr, "measure_cr_batch: null fleet in job");
  }
  LS_OBS_SPAN("eval.batch.run");
  LS_OBS_COUNT("eval.batch.jobs", jobs.size());
  return parallel_map(
      jobs.size(),
      [&jobs](const std::size_t i) {
        const CrBatchJob& job = jobs[i];
        return measure_cr(*job.fleet, job.f, job.options);
      },
      batch.threads);
}

std::vector<CrEvalResult> measure_cr_batch(const Fleet& fleet,
                                           const std::vector<int>& fault_budgets,
                                           const CrEvalOptions& options,
                                           const BatchOptions& batch) {
  std::vector<CrBatchJob> jobs;
  jobs.reserve(fault_budgets.size());
  for (const int f : fault_budgets) {
    jobs.push_back({&fleet, f, options});
  }
  return measure_cr_batch(jobs, batch);
}

std::vector<Real> k_profile_batch(const Fleet& fleet, const int f,
                                  const std::vector<Real>& positions,
                                  const BatchOptions& batch) {
  expects(f >= 0, "k_profile_batch: f must be >= 0");
  for (const Real x : positions) {
    expects(x != 0, "k_profile_batch: positions must be non-zero");
  }
  return parallel_map(
      positions.size(),
      [&](const std::size_t i) {
        const Real x = positions[i];
        return fleet.detection_time(x, f) / std::fabs(x);
      },
      batch.threads);
}

}  // namespace linesearch
