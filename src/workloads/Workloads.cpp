//===- workloads/Workloads.cpp - Suite registry -----------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "workloads/WorkloadsInternal.h"

#include <ostream>

using namespace incline::workloads;

const std::vector<Workload> &incline::workloads::allWorkloads() {
  static const std::vector<Workload> All = [] {
    std::vector<Workload> Result;
    for (auto &&Group :
         {dacapoWorkloads(), scalaDacapoWorkloads(),
          sparkAndOtherWorkloads()})
      for (auto &W : Group)
        Result.push_back(std::move(W));
    return Result;
  }();
  return All;
}

const Workload *incline::workloads::findWorkload(const std::string &Name) {
  for (const Workload &W : allWorkloads())
    if (W.Name == Name)
      return &W;
  return nullptr;
}

void incline::workloads::PrintTo(const Workload &W, std::ostream *OS) {
  *OS << W.Name;
}
