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
    BatchNormParams,
    MultShift,
    RequantParams,
    Rounding,
    clamp,
    fold_batch_norm,
    narrow_bias,
    quantize_multiplier,
    requantize,
    requantize_array,
    shift_round,
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
    add_forward,
    add_passthrough,
    address_map,
    c2d_forward,
    dwc_avgpool,
    dwc_forward,
    engine_cycles,
    exp_forward,
    layout_weights,
    nominal_stats,
    pro_forward,
    run_layer,
    weight_bytes,
)
from .oracle import (
    dequantize,
    float_layer,
    naive_quant_layer,
    run_model_float,
    run_model_naive,
)
from .dataflow import (
    BoundedQueue,
    FrameBuffer,
    InferenceResult,
    SingleConsumptionStream,
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
