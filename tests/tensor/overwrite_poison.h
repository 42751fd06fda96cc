// Holds Literal's overwrite poison on for a test fixture's lifetime: every
// Literal::ForOverwrite buffer, recycled or new, starts as a NaN with the
// payload Literal::IsOverwritePoison recognizes, so an output element a
// kernel fails to write shows up in its result instead of stale bytes.
#pragma once

#include "tensor/literal.h"

namespace s4tf {

class OverwritePoisonScope {
 public:
  OverwritePoisonScope() { Literal::SetOverwritePoisonForTesting(true); }
  ~OverwritePoisonScope() { Literal::SetOverwritePoisonForTesting(false); }
  OverwritePoisonScope(const OverwritePoisonScope&) = delete;
  OverwritePoisonScope& operator=(const OverwritePoisonScope&) = delete;
};

}  // namespace s4tf
