#ifndef SWIFT_SERVICE_GANG_ARBITER_H_
#define SWIFT_SERVICE_GANG_ARBITER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "scheduler/gang_scheduler.h"
#include "scheduler/resource_pool.h"
#include "service/fair_share.h"

namespace swift {

struct GangArbiterConfig {
  int machines = 4;
  int executors_per_machine = 64;
  FairShareConfig fair_share;
  /// Higher-priority waiters may flag running lower-class jobs to yield
  /// their gangs at the next wave boundary.
  bool enable_preemption = true;
  /// Watchdog on one blocking acquisition. A feasible gang only waits
  /// while other jobs hold executors, and every holder releases at its
  /// graphlet (or wave, under preemption) boundary, so in a healthy
  /// service this never fires; it converts a scheduling bug into a
  /// failed job instead of a hung driver thread.
  double acquire_timeout_s = 120.0;
  /// Metrics sink (not owned, may be null): service.preemptions,
  /// service.gang.wait_s, service.gang.waiters, and per-tenant
  /// service.tenant.<name>.gang_units.
  obs::MetricsRegistry* metrics = nullptr;
};

/// \brief The job service's GangScheduler: ONE ResourcePool shared by
/// every in-flight job, with blocking gang acquisition ordered by
/// weighted fair queuing over tenants and cooperative preemption.
///
/// Acquisition discipline: all waiters park on a condition variable and
/// only the fairness head (FairSharePolicy::PickIndex over the waiter
/// set) attempts allocation. Strict head-of-line service is what makes
/// large gangs starvation-free — backfilling smaller gangs around a big
/// waiter would be work-conserving but could starve it indefinitely.
///
/// Deadlock-freedom: a job holds at most one gang and never waits while
/// holding (the runtime acquires, runs the graphlet, releases), so the
/// head's wait is always on jobs that release in bounded time. A gang
/// that cannot fit even on an idle cluster (machines dead or drained
/// below the request size) fails fast with ResourceExhausted instead of
/// waiting for capacity that cannot appear.
class GangArbiter : public GangScheduler {
 public:
  explicit GangArbiter(GangArbiterConfig config);

  void BeginJob(JobId job, const JobRunOptions& opts) override;
  void EndJob(JobId job) override;
  Result<std::vector<ExecutorId>> AcquireGang(
      JobId job, const std::vector<LocalityPref>& prefs) override;
  void ReleaseGang(JobId job, const std::vector<ExecutorId>& gang) override;
  bool ShouldYield(JobId job) override;
  void RevokeMachine(int machine) override;
  void RestoreMachine(int machine) override;
  void SetReadOnly(int machine, bool read_only) override;

  /// \brief Yield requests issued to running jobs (test introspection).
  int64_t preemptions() const;
  /// \brief Executor-grant units (sum of granted gang sizes) per tenant;
  /// the share each tenant actually received, for fairness assertions.
  std::map<std::string, double> TenantGangUnits() const;
  /// \brief Gang requests parked in AcquireGang right now (read-only;
  /// lets a test sequence requests and releases deterministically).
  std::size_t queued_requests() const;

 private:
  struct JobInfo {
    std::string tenant = "default";
    int priority = 0;
    bool yield_requested = false;
    int holding = 0;  ///< executors currently held (0 or one gang)
  };
  struct Waiter {
    JobId job = 0;
    std::size_t need = 0;
    FairSharePolicy::Entry entry;
  };

  /// Executors that exist on live, schedulable machines right now; the
  /// ceiling any amount of waiting can reach.
  int CapacityUpperBoundLocked() const;
  /// Ask running lower-class jobs to yield until `need` could fit.
  void RequestPreemptionLocked(const JobInfo& claimant);

  const GangArbiterConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  ResourcePool pool_;
  FairSharePolicy policy_;
  std::map<JobId, JobInfo> jobs_;
  std::vector<Waiter> waiters_;
  std::set<int> revoked_;
  std::set<int> read_only_;
  int64_t preemptions_ = 0;
  std::map<std::string, double> tenant_units_;
  std::map<std::string, obs::Counter*> tenant_unit_counters_;
  obs::Counter* m_preemptions_ = nullptr;
  obs::Series* m_gang_wait_ = nullptr;
  obs::Gauge* m_waiters_ = nullptr;
};

}  // namespace swift

#endif  // SWIFT_SERVICE_GANG_ARBITER_H_
