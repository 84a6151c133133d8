"""The polynomial kernel under the names the benchmark reads.

gbott has one kernel, the pure-Python `gbott._kernel_py`.  This module
keeps `kernel` and `KERNEL_NAME` for perfbench, whose tracer wraps
`kernel.pmul`/`psubst`/`preduce` and whose set-up probe prints
`gbott.kernel_backend`.
"""

from . import _kernel_py as kernel

KERNEL_NAME = "py"
