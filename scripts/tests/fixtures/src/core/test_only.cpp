// Fixture: the own .cpp of test_only.h — its include does not keep the
// header alive.
#include "core/test_only.h"

int test_only_helper() { return 1; }
