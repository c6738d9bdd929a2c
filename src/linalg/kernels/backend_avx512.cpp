// AVX-512 backend. Compiled with -mavx512{f,dq,vl,bw} -mfma
// -mprefer-vector-width=512 when available (FASTQAOA_KERNELS_COMPILE_AVX512
// defined by CMake), null registration otherwise. Runtime dispatch gates
// installation on CPUID.

#include "linalg/kernels/kernels.hpp"

#if defined(FASTQAOA_KERNELS_COMPILE_AVX512)

#define FQ_KERNEL_NAMESPACE avx512_impl
#define FQ_KERNEL_FAST_SINCOS 1

#include "linalg/kernels/kernel_impl.inl"

namespace fastqaoa::linalg::kernels {

bool make_avx512_backend(KernelBackend* out) {
  *out = avx512_impl::make_backend("avx512");
  return true;
}

}  // namespace fastqaoa::linalg::kernels

#else  // !FASTQAOA_KERNELS_COMPILE_AVX512

namespace fastqaoa::linalg::kernels {

bool make_avx512_backend(KernelBackend*) { return false; }

}  // namespace fastqaoa::linalg::kernels

#endif
