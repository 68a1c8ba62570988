"""Integer-only quantized CNN inference on a semi-streaming engine loop.

The package covers the full path from model generation to latency
estimation: quantization arithmetic (quantcore), graph construction and
the package format (modelkit), the five fixed-function engines
(engines), reference evaluators (oracle), the round dataflow with its
streaming drivers (dataflow), and the analytic performance model with
the cycle model of every engine (perfmodel).
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
    Rounding,
    narrow_bias,
    pack_multipliers,
    requantize_array,
)
from .modelkit import (
    ACC_BOUND,
    AddParams,
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
from .engines import ExpStreamKernel, add_elements, run_layer
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
    ADD_OPS_PER_CYCLE,
    ADD_STREAM_BITS,
    CALIBRATED_BANDWIDTH_GBPS,
    MADDS_PER_CYCLE,
    REFERENCE_FREQUENCY_MHZ,
    REFERENCE_MULTIPLIERS,
    WEIGHT_GEOMETRY,
    ClockConfig,
    EngineStats,
    TimelineEntry,
    bandwidth_report,
    estimate_timeline,
    first_bandwidth_limited_round,
    layer_cost,
    normalize_performance,
    performance_report,
    throughput_report,
    total_latency,
)

__version__ = "0.1.0"
