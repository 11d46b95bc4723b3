// AST → IR lowering. Produces one IrFunction per defined function in a
// translation unit. See ir.h for the lowering contract (slots, synthetic
// temps for ignored call results, store annotations).

#ifndef VALUECHECK_SRC_IR_IR_BUILDER_H_
#define VALUECHECK_SRC_IR_IR_BUILDER_H_

#include <memory>

#include "src/ast/ast.h"
#include "src/ir/ir.h"

namespace vc {

// Lowers all defined functions of `unit` into a module that holds them in
// its own arena. The unit (and its AST arena) must outlive the returned
// module: IR instructions point into the AST.
std::unique_ptr<IrModule> LowerUnit(const TranslationUnit& unit);

}  // namespace vc

#endif  // VALUECHECK_SRC_IR_IR_BUILDER_H_
