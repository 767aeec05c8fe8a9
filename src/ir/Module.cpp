//===- ir/Module.cpp -------------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"

#include "ir/IRPrinter.h"
#include "support/ErrorHandling.h"
#include "support/Hash.h"

using namespace incline;
using namespace incline::ir;

Function *Module::addFunction(std::string Name,
                              std::vector<types::Type> ParamTypes,
                              std::vector<std::string> ParamNames,
                              types::Type ReturnType) {
  auto F = std::make_unique<Function>(Name, std::move(ParamTypes),
                                      std::move(ParamNames), ReturnType);
  return adoptFunction(std::move(F));
}

Function *Module::adoptFunction(std::unique_ptr<Function> F) {
  Function *Raw = F.get();
  auto [It, Inserted] = Funcs.emplace(Raw->name(), std::move(F));
  if (!Inserted)
    INCLINE_FATAL("duplicate function symbol in module");
  return It->second.get();
}

Function *Module::function(std::string_view Name) const {
  auto It = Funcs.find(Name);
  return It == Funcs.end() ? nullptr : It->second.get();
}

uint64_t Module::contentFingerprint() const {
  uint64_t Memo = ContentFp.load(std::memory_order_acquire);
  if (Memo != 0)
    return Memo;

  // printModule covers every function body deterministically (Funcs is
  // name-ordered); the class hierarchy is appended explicitly because the
  // printer only emits IR. Concurrent first calls compute the same value,
  // so a plain racing store is benign. This lazy path only runs for
  // programmatically built modules — the frontend seeds its modules with a
  // source-text digest (seedContentFingerprint), which is equivalent (the
  // frontend is deterministic) and avoids printing the module at all.
  uint64_t Hash = fnv1a(printModule(*this), FnvOffsetBasis);
  for (size_t Id = 0; Id < Classes.numClasses(); ++Id) {
    const types::ClassInfo &Info = Classes.classInfo(static_cast<int>(Id));
    Hash = fnv1a(Info.Name, Hash);
    Hash = fnv1a(static_cast<uint64_t>(Info.SuperId + 1), Hash);
    for (const types::FieldInfo &Field : Info.Fields) {
      Hash = fnv1a(Field.Name, Hash);
      Hash = fnv1a(typeToString(Field.Ty), Hash);
    }
    for (const types::MethodInfo &Method : Info.Methods)
      Hash = fnv1a(Method.QualifiedName, Hash);
  }
  if (Hash == 0)
    Hash = 1; // Reserve 0 as "not yet computed".
  ContentFp.store(Hash, std::memory_order_release);
  return Hash;
}
