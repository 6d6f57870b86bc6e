// Fixture: SIMD code outside the kernel layer. Every marked line must
// produce a [simd-site] finding.
#include <immintrin.h>  // BAD: intrinsics header
#include <vector>

__attribute__((target("avx2"))) void add4(double* y, const double* x) {  // BAD
  _mm256_storeu_pd(y, _mm256_add_pd(_mm256_loadu_pd(y),  // BAD
                                    _mm256_loadu_pd(x)));
}

// Mentioning _mm256_add_pd or <immintrin.h> in a comment must NOT fire,
const char* kNote = "nor _mm_add_pd in a string literal";
int my_mm_count = 0;  // nor an identifier that only contains _mm
