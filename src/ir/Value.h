//===- ir/Value.h - SSA value base class and constants -------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The base of the IR value hierarchy: `Value` (anything an instruction can
/// consume), `Argument` (function parameters), and the `Constant` family
/// (int/bool/null literals, uniqued per function). Use-def chains are kept
/// bidirectional so transformations can rewrite users in O(uses).
///
/// The class hierarchy uses LLVM-style opt-in RTTI (see support/Casting.h)
/// keyed on a single `ValueKind` enum; kind ranges encode the hierarchy.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_IR_VALUE_H
#define INCLINE_IR_VALUE_H

#include "support/SmallVector.h"
#include "types/Type.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace incline::ir {

class Instruction;
class Function;

/// Discriminator for the whole Value hierarchy. The order is significant:
/// classof implementations test kind ranges.
enum class ValueKind : uint8_t {
  Argument,
  // Constants.
  ConstInt,
  ConstBool,
  ConstNull,
  // Instructions (must stay contiguous; FirstInst..LastInst).
  Phi,
  BinOp,
  UnOp,
  Call,
  VirtualCall,
  NewObject,
  NewArray,
  LoadField,
  StoreField,
  LoadIndex,
  StoreIndex,
  ArrayLength,
  InstanceOf,
  CheckCast,
  GetClassId,
  NullCheck,
  Print,
  OsrEntry,
  // Terminators (must stay contiguous and last).
  Branch,
  Jump,
  Guard,
  Return,
  Deopt,
};

inline constexpr ValueKind FirstConstantKind = ValueKind::ConstInt;
inline constexpr ValueKind LastConstantKind = ValueKind::ConstNull;
inline constexpr ValueKind FirstInstKind = ValueKind::Phi;
inline constexpr ValueKind LastInstKind = ValueKind::Deopt;
inline constexpr ValueKind FirstTerminatorKind = ValueKind::Branch;
inline constexpr ValueKind LastTerminatorKind = ValueKind::Deopt;

/// Anything that can appear as an instruction operand.
///
/// A Value tracks its static type and an "exact type" bit: when set, the
/// dynamic class of the value is known to be precisely `type().classId()`
/// (e.g. the result of `new C`). Exactness is what lets the canonicalizer
/// devirtualize calls — the key mechanism behind the paper's deep inlining
/// trials, where argument types propagated into callee copies become exact.
class Value {
public:
  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;
  virtual ~Value();

  ValueKind kind() const { return Kind; }
  types::Type type() const { return Ty; }
  void setType(types::Type NewTy) { Ty = NewTy; }

  /// True when the dynamic type is known to equal the static type exactly.
  bool hasExactType() const { return ExactType; }
  void setExactType(bool Exact) { ExactType = Exact; }

  /// One entry per (user, operand-slot) pair. Two inline slots cover
  /// about nine values in ten of the lowered suite and traffic programs.
  using UserList = SmallVector<Instruction *, 2>;

  /// Users, with one entry per (user, operand-slot) pair — a user appears
  /// as many times as it references this value.
  const UserList &users() const { return Users; }
  bool hasUses() const { return !Users.empty(); }
  size_t numUses() const { return Users.size(); }

  /// Rewrites every use of this value to \p New. \p New must be type-
  /// compatible; the caller is responsible for semantic correctness.
  void replaceAllUsesWith(Value *New);

  /// Use-list maintenance; called by Instruction::setOperand and friends.
  void addUser(Instruction *User) { Users.push_back(User); }
  void removeUser(Instruction *User);

protected:
  Value(ValueKind Kind, types::Type Ty) : Kind(Kind), Ty(Ty) {}

private:
  ValueKind Kind;
  types::Type Ty;
  bool ExactType = false;
  UserList Users;
};

/// A formal parameter of a Function. Slot 0 is the receiver (`this`) for
/// methods.
class Argument : public Value {
public:
  Argument(unsigned Index, std::string Name, types::Type Ty)
      : Value(ValueKind::Argument, Ty), Index(Index), Name(std::move(Name)) {}

  unsigned index() const { return Index; }
  const std::string &name() const { return Name; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Argument;
  }

private:
  unsigned Index;
  std::string Name;
};

/// Base for literal constants. Constants are uniqued per Function and are
/// not attached to any basic block.
class Constant : public Value {
public:
  static bool classof(const Value *V) {
    return V->kind() >= FirstConstantKind && V->kind() <= LastConstantKind;
  }

protected:
  Constant(ValueKind Kind, types::Type Ty) : Value(Kind, Ty) {}
};

/// A 64-bit integer literal.
class ConstInt : public Constant {
public:
  explicit ConstInt(int64_t Val)
      : Constant(ValueKind::ConstInt, types::Type::intTy()), Val(Val) {}

  int64_t value() const { return Val; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstInt;
  }

private:
  int64_t Val;
};

/// A boolean literal.
class ConstBool : public Constant {
public:
  explicit ConstBool(bool Val)
      : Constant(ValueKind::ConstBool, types::Type::boolTy()), Val(Val) {}

  bool value() const { return Val; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstBool;
  }

private:
  bool Val;
};

/// The `null` literal.
class ConstNull : public Constant {
public:
  ConstNull() : Constant(ValueKind::ConstNull, types::Type::nullTy()) {}

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstNull;
  }
};

} // namespace incline::ir

#endif // INCLINE_IR_VALUE_H
