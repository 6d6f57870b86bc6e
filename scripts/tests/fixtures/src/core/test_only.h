// Fixture: a header only a tests/ file includes. Its own .cpp includes it
// too, which does not count, so the full-tree lint must report a
// [test-only-header] finding here.
#pragma once

int test_only_helper();
