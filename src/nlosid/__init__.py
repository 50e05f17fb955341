"""Angular-domain LOS/NLOS identification from beam-trained soundings.

The pipeline: synthesize or ingest a grid of beam-trained impulse
responses, integrate them into a power angular spectrum, watershed-segment
the spectrum into ray clusters, summarize each cluster with five channel
metrics, fit per-class extreme-value statistics, and classify clusters as
line-of-sight or reflected with a likelihood-ratio test or a small
feed-forward network.
"""

from .chansim import (LOS, NLOS, CirTensor, Ray, RayCluster, SimConfig,
                      beam_amplitude, generate_channel, render_cir,
                      rng_stream, simulate_realization)
from .classifiers import (AnnModel, GevPair, MlrModel, TrainSchedule,
                          Verdicts, ann_classify, ann_init, ann_train,
                          error_rates, mlr_classify, mlr_train, softmax)
from .errors import (ConfigError, DataFormatError, DegenerateInputError,
                     EvaluationError, FitError, NlosIdError, NumericalError,
                     RenderError, TrainingError)
from .experiment import (BootstrapSpec, ExperimentConfig, Report,
                         cmd_extract, cmd_simulate, extract_realization,
                         ingest_sweeps, inputs_from_manifest, run_experiment)
from .gevstats import (GevParams, bootstrap_split, cdf_rmse, gev_cdf,
                       gev_fit_mle, gev_pdf)
from .metrics import (METRIC_NAMES, CoKurtosisMatrix, FeatureVector,
                      MetricConfig, cluster_features, co_kurtosis,
                      delay_moments, eigen_ratio, freq_kurtosis,
                      time_kurtosis)
from .pas import AngularGrid, PasMap, compute_pas, wrap_angle_deg
from .segmentation import (Cluster, SegParams, estimate_noise_floor,
                           label_clusters_with_truth, segment)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
