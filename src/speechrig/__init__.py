"""speechrig: speech features + emotion labels -> facial rig controller curves.

Pipeline: feature ingestion (or a spectral fallback from raw audio),
resampling to the 60 fps rig clock, a transformer regression core
predicting 174 controller values per frame, least-squares smoothing and
clamping, and procedural blink/gaze injection. A CLI (``speechrig``)
wraps the whole flow deterministically.
"""

from .blink import (
    BlinkClassifier,
    BlinkEvent,
    BlinkFrequencyModel,
    detect_blinks,
    ear,
    fit_lognormal,
    inject_blinks,
    sample_blink_times,
    train_blink_classifier,
)
from .encoders import EncoderParams, encode_content, positional_encoding
from .errors import DataError, NumericError, RigPipelineError
from .evaluate import lr_correlation, mae, mae_report
from .features import (
    AudioClip,
    FeatureSequence,
    extract_fallback_features,
    read_feature_file,
    resample_features,
    write_feature_file,
)
from .gaze import GazeTrack, inject_gaze, sample_gaze_track
from .network import (
    RigModel,
    build_model,
    grad_check,
    infer,
    load_model,
    save_model,
)
from .rig import (
    EMOTION_NAMES,
    RIG_FPS,
    RIG_WIDTH,
    ControllerEntry,
    ControllerMap,
    RigSequence,
    default_map,
    load_controller_map,
)
from .smoothing import clamp_sequence, savgol_coeffs, smooth_sequence
from .training import TrainConfig, gen_synthetic, steplr, train

__version__ = "0.1.0"
