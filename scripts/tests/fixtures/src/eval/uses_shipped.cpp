// Fixture: a shipping src/ file that includes core/shipped.h.
#include "core/shipped.h"

int uses_shipped() { return shipped_helper(); }
