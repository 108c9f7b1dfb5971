"""Set-up as a user's process pays it: import plapeig, then the first pi_p
at each exponent given on the command line.  Prints one JSON line."""

import json
import sys
import time

t0 = time.perf_counter()
import plapeig  # noqa: E402

t1 = time.perf_counter()
cold_ms = []
for arg in sys.argv[1:]:
    t = time.perf_counter()
    plapeig.pi_p(float(arg))
    cold_ms.append((time.perf_counter() - t) * 1e3)
print(json.dumps({"import_s": t1 - t0, "pi_p_cold_ms": cold_ms, "file": plapeig.__file__}))
