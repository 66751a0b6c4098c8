"""Interpreter settings every benchmark process runs under.

BLAS pools are capped at one thread (no more than ``nproc`` on any box,
and steadier on a shared one). The OpenBLAS kernel is pinned to its AVX2
(Haswell) build because float32 GEMM results, and so training losses,
differ between kernels and thread counts; pinned, the default seed's
losses in ``expected.json`` reproduce on any AVX2 x86-64 host.
"""

BLAS_THREADS = 1

ENV = {
    **{
        var: str(BLAS_THREADS)
        for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
        )
    },
    "OPENBLAS_CORETYPE": "Haswell",
    "PYTHONHASHSEED": "0",
}
