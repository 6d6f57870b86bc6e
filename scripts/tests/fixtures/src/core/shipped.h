// Fixture: a header a src/ file includes — the test-only-header rule must
// stay quiet here.
#pragma once

int shipped_helper();
