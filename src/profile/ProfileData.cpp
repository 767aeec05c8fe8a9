//===- profile/ProfileData.cpp ----------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileData.h"

#include <algorithm>
#include <iterator>

using namespace incline;
using namespace incline::profile;

uint64_t ReceiverProfile::total() const {
  uint64_t Sum = 0;
  for (const auto &[ClassId, Count] : Counts)
    Sum += Count;
  return Sum;
}

std::vector<std::pair<int, double>>
ReceiverProfile::topReceivers(size_t MaxTargets, double MinProbability) const {
  uint64_t Total = total();
  if (Total == 0)
    return {};
  std::vector<std::pair<int, double>> All;
  for (const auto &[ClassId, Count] : Counts)
    All.emplace_back(ClassId,
                     static_cast<double>(Count) / static_cast<double>(Total));
  std::sort(All.begin(), All.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first < B.first; // Deterministic tie-break.
  });
  std::vector<std::pair<int, double>> Result;
  for (const auto &Entry : All) {
    if (Result.size() >= MaxTargets || Entry.second < MinProbability)
      break;
    Result.push_back(Entry);
  }
  return Result;
}

MethodProfile &ProfileTable::methodProfile(std::string_view Method) {
  auto It = Methods.find(Method);
  if (It == Methods.end())
    It = Methods.emplace(std::string(Method), MethodProfile{}).first;
  return It->second;
}

const MethodProfile *ProfileTable::find(std::string_view Method) const {
  auto It = Methods.find(Method);
  return It == Methods.end() ? nullptr : &It->second;
}

double ProfileTable::branchProbability(std::string_view Method,
                                       unsigned ProfileId) const {
  const MethodProfile *MP = find(Method);
  if (!MP)
    return 0.5;
  auto It = MP->Branches.find(ProfileId);
  return It == MP->Branches.end() ? 0.5 : It->second.trueProbability();
}

const ReceiverProfile *
ProfileTable::receiverProfile(std::string_view Method,
                              unsigned ProfileId) const {
  const MethodProfile *MP = find(Method);
  if (!MP)
    return nullptr;
  auto It = MP->Receivers.find(ProfileId);
  return It == MP->Receivers.end() ? nullptr : &It->second;
}

uint64_t ProfileTable::invocationCount(std::string_view Method) const {
  const MethodProfile *MP = find(Method);
  return MP ? MP->InvocationCount : 0;
}

void MethodProfile::decay() {
  InvocationCount >>= 1;
  for (auto It = Branches.begin(); It != Branches.end();) {
    It->second.TrueCount >>= 1;
    It->second.FalseCount >>= 1;
    It = It->second.total() == 0 ? Branches.erase(It) : std::next(It);
  }
  for (auto It = Receivers.begin(); It != Receivers.end();) {
    auto &Counts = It->second.Counts;
    for (auto CIt = Counts.begin(); CIt != Counts.end();) {
      CIt->second >>= 1;
      CIt = CIt->second == 0 ? Counts.erase(CIt) : std::next(CIt);
    }
    It = Counts.empty() ? Receivers.erase(It) : std::next(It);
  }
  for (auto It = Backedges.begin(); It != Backedges.end();) {
    It->second >>= 1;
    It = It->second == 0 ? Backedges.erase(It) : std::next(It);
  }
}

void ProfileTable::decay() {
  for (auto &[Name, MP] : Methods)
    MP.decay();
  // Inner-map entries may have been erased above; interned pointers into
  // them are now stale. Anyone holding one revalidates against this.
  ++DecayEpoch;
}

std::string ProfileTable::dump() const {
  // Branches/Receivers/Backedges are unordered; sort their ids so the dump
  // is a pure function of the table's *content*.
  auto SortedIds = [](const auto &Map) {
    std::vector<unsigned> Ids;
    Ids.reserve(Map.size());
    for (const auto &[Id, Unused] : Map)
      Ids.push_back(Id);
    std::sort(Ids.begin(), Ids.end());
    return Ids;
  };
  std::string Out;
  for (const auto &[Name, MP] : Methods) {
    Out += "method " + Name + " inv=" + std::to_string(MP.InvocationCount) +
           "\n";
    for (unsigned Id : SortedIds(MP.Branches)) {
      const BranchProfile &BP = MP.Branches.at(Id);
      Out += "  branch " + std::to_string(Id) +
             " true=" + std::to_string(BP.TrueCount) +
             " false=" + std::to_string(BP.FalseCount) + "\n";
    }
    for (unsigned Id : SortedIds(MP.Receivers)) {
      Out += "  recv " + std::to_string(Id);
      for (const auto &[ClassId, Count] : MP.Receivers.at(Id).Counts) {
        // Appended piecewise: in optimized builds GCC 12's -Wrestrict
        // misfires on `" " + std::string&&`.
        Out += ' ';
        Out += std::to_string(ClassId) + ":" + std::to_string(Count);
      }
      Out += "\n";
    }
    for (unsigned Id : SortedIds(MP.Backedges))
      Out += "  backedge " + std::to_string(Id) + "=" +
             std::to_string(MP.Backedges.at(Id)) + "\n";
  }
  return Out;
}
