// Fixture: the kernel layer is where SIMD code belongs; nothing here fires.
#include <immintrin.h>

__attribute__((target("avx2"))) void add4(double* y, const double* x) {
  _mm256_storeu_pd(y, _mm256_add_pd(_mm256_loadu_pd(y), _mm256_loadu_pd(x)));
}
