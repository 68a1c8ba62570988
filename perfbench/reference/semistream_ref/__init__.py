"""Frozen copy of semistream's runtime, the benchmark's timing yardstick.

errors.py, quantcore.py, modelkit.py, engines.py and dataflow.py are
verbatim copies of src/semistream/ at commit 71de03e. Do not edit them:
every timing the benchmark reports is the program's time over this
copy's time on the same work, interleaved call by call, so the host's
drifting speed cancels out. This file exports what the benchmark calls.
"""
from .dataflow import run_inference
from .modelkit import (
    BlockSpec,
    build_mobilenet_v2,
    build_model,
    image_to_qtensor,
    load_package,
    prepare,
    save_package,
)
from .quantcore import Rounding
