"""Integer-only quantized CNN inference on a semi-streaming engine loop.

The package covers the full path from model generation to latency
estimation: quantization arithmetic (quantcore), graph construction and
the package format (modelkit), the five fixed-function engines
(engines), reference evaluators (oracle), the round dataflow with its
streaming drivers (dataflow), and the analytic performance model
(perfmodel).
"""
from .errors import (
    DeadlockError,
    DomainError,
    FormatError,
    PlanError,
    RangeError,
    SemistreamError,
    SequencingError,
    ShapeError,
)
from .quantcore import (
    AddParams,
    MultShift,
    Rounding,
    narrow_bias,
    pack_multipliers,
    quantize_multiplier,
    requantize_array,
)
from .modelkit import (
    ACC_BOUND,
    BlockSpec,
    Kind,
    LayerDesc,
    ModelGraph,
    PreparedModel,
    QFilterSet,
    QTensor,
    RoundPlan,
    build_mobilenet_v2,
    build_model,
    check_acc_bound,
    image_to_qtensor,
    load_image,
    load_package,
    pad_channels,
    prepare,
    residual_fifo_capacity,
    save_package,
    save_ppm,
    save_raw,
    schedule_rounds,
    validate_graph,
)
from .engines import (
    ADD_OPS_PER_CYCLE,
    ADD_STREAM_BITS,
    MADDS_PER_CYCLE,
    WEIGHT_GEOMETRY,
    EngineStats,
    ExpStreamKernel,
    add_elements,
    engine_cycles,
    nominal_stats,
    run_layer,
    weight_bytes,
)
from .oracle import (
    dequantize,
    float_layer,
    naive_quant_layer,
    run_model_naive,
)
from .dataflow import (
    BoundedQueue,
    FrameBuffer,
    InferenceResult,
    run_inference,
)
from .perfmodel import (
    CALIBRATED_BANDWIDTH_GBPS,
    REFERENCE_FREQUENCY_MHZ,
    REFERENCE_MULTIPLIERS,
    ClockConfig,
    TimelineEntry,
    bandwidth_report,
    estimate_timeline,
    first_bandwidth_limited_round,
    normalize_performance,
    performance_report,
    throughput_report,
    total_latency,
)

__version__ = "0.1.0"
