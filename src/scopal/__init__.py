"""Self-play step-level policy optimization over small adversarial games."""
import os

# Worker pools fork this process, and forking a multi-threaded process can
# deadlock a child on a lock held at fork time. OpenBLAS starts a thread pool
# when numpy loads; the policy's matrices are small, so one thread is enough.
# A value set by the user still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
