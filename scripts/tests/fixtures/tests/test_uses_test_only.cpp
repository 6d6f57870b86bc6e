// Fixture: a test that includes core/test_only.h — tests do not keep a
// src/ header alive.
#include "core/test_only.h"

int uses_test_only() { return test_only_helper(); }
