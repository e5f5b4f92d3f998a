"""Time every registry query at the given sf dir; write
{"times": {name: sec}, "errs": {name: repr}} to /tmp/sweep_times.json.

Usage:  python tools/sweep_times.py sf_dir   (from the repo root)
"""
import json
import os
import sys
import time

import ray

if len(sys.argv) != 2:
    sys.exit(__doc__)
SF = sys.argv[1]
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ray.init(address="local", num_cpus=8, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as e  # noqa: E402

table = e.registry()
times, errs = {}, {}
for i, name in enumerate(sorted(table)):
    t0 = time.perf_counter()
    try:
        r = table[name][0](SF)
        if isinstance(r, ray.data.Dataset):
            for _ in r.iter_batches(batch_size=65536, batch_format="pyarrow"):
                pass
    except Exception as ex:
        errs[name] = repr(ex)[:200]
    times[name] = round(time.perf_counter() - t0, 2)
    print(f"{i + 1}/{len(table)} {name} {times[name]}s", flush=True)

with open("/tmp/sweep_times.json", "w") as f:
    json.dump({"times": times, "errs": errs}, f)
print("TOTAL", round(sum(times.values()), 1))
print("ERRS", errs)
ray.shutdown()
