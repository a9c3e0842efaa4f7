#ifndef MLDS_KC_FAULTY_EXECUTOR_H_
#define MLDS_KC_FAULTY_EXECUTOR_H_

#include <string_view>

#include "kc/executor.h"

namespace mlds::kc {

/// Kernel executor that fails on command: wraps a real executor and
/// rejects Execute while armed, or after N more successful requests (to
/// break multi-request translations mid-flight). The failure-injection
/// counterpart, at the kernel-controller seam, of the MBDS per-backend
/// FaultInjector — language-interface tests use it to verify that kernel
/// faults propagate as clean Status values and never corrupt sessions.
class FaultyExecutor : public KernelExecutor {
 public:
  explicit FaultyExecutor(KernelExecutor* inner) : inner_(inner) {}

  Status DefineDatabase(const abdm::DatabaseDescriptor& db) override {
    return inner_->DefineDatabase(db);
  }
  bool HasFile(std::string_view file) const override {
    return inner_->HasFile(file);
  }
  Result<kds::Response> Execute(const abdl::Request& request) override {
    if (fail_after_ == 0) {
      return Status::Internal("injected kernel fault");
    }
    if (fail_after_ > 0) --fail_after_;
    return inner_->Execute(request);
  }
  size_t FileSize(std::string_view file) const override {
    return inner_->FileSize(file);
  }
  uint64_t ReserveKeys(std::string_view file, size_t count) override {
    return inner_->ReserveKeys(file, count);
  }

  /// While failing, the kernel reports itself degraded; otherwise the
  /// inner executor's health passes through.
  KernelHealth Health() const override {
    KernelHealth health = inner_->Health();
    if (fail_after_ == 0) {
      health.degraded = true;
      for (BackendHealthStatus& backend : health.backends) {
        backend.state = "suspect";
        backend.last_fault = "injected kernel fault";
      }
    }
    return health;
  }

  /// -1 = healthy; 0 = fail immediately; N>0 = fail after N requests.
  void set_fail_after(int n) { fail_after_ = n; }

 private:
  KernelExecutor* inner_;
  int fail_after_ = -1;
};

}  // namespace mlds::kc

#endif  // MLDS_KC_FAULTY_EXECUTOR_H_
