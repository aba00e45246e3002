"""Machine metadata capture for bench artifacts.

The paper pins its numbers to named hardware ("16 2.53 GHz Intel Xeon
CPU cores, 16 GB of main memory, and two Tesla S10 GPUs"); reproduction
artifacts should carry the same context.  :func:`machine_info` collects
what the standard library and numpy expose, and the JSON writer embeds
it so every results file is self-describing.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any

import numpy as np

__all__ = ["machine_info"]


def machine_info() -> dict[str, Any]:
    """Snapshot of the executing machine and software stack."""
    import scipy  # deferred: keeps scipy off the import path of repro

    info: dict[str, Any] = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemTotal"):
                    info["mem_total_kb"] = int(line.split()[1])
                    break
    except OSError:
        pass
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info
