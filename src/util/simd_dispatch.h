// ISA dispatch for SIMD kernels (GCC function multiversioning): each is
// compiled per ISA (AVX-512 / AVX2 / baseline), glibc's ifunc resolver
// picks the widest the CPU supports, and every clone computes the same
// bits. NEUROSKETCH_NO_SIMD_CLONES (and any ThreadSanitizer build) keeps
// baseline code only: the dynamic linker runs ifunc resolvers before
// libtsan's .preinit_array initializes its thread state, and GCC's libtsan
// segfaults on the first intercepted call from that window.
#ifndef NEUROSKETCH_UTIL_SIMD_DISPATCH_H_
#define NEUROSKETCH_UTIL_SIMD_DISPATCH_H_

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(NEUROSKETCH_NO_SIMD_CLONES) && !defined(__SANITIZE_THREAD__)
#define NS_SIMD_DISPATCH 1
#define NS_TARGET_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#define NS_TARGET_DEFAULT __attribute__((target("default")))
#else
#define NS_SIMD_DISPATCH 0
#define NS_TARGET_CLONES
#define NS_TARGET_DEFAULT
#endif

#endif  // NEUROSKETCH_UTIL_SIMD_DISPATCH_H_
