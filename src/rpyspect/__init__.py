"""Memory-bounded reference publication year spectroscopy.

Streams tagged bibliographic exports, draws random/systematic/cluster
samples of cited references, clusters reference variants, computes
spectrograms, and merges many samples into one result — drivable from a
replayable script language or the command line.
"""

from .clustering import ClusterConfig, cluster_crs, compatible, merge_clusters, remove_cr
from .engine import Environment, execute
from .formats import export_csv_cr, export_csv_graph, load_cre, save_cre, union_cre
from .model import (
    CitedReference,
    CRVariant,
    Dataset,
    Spectrogram,
    aggregate,
    normalize_key,
    parse_key,
)
from .sampling import removal_threshold
from .script import parse_script, pretty
from .spectroscopy import compute_spectrogram, fidelity, n_pct, top_crs
from .wos import (
    ImportFilter,
    MemoryProbe,
    ParseStats,
    analyze_file,
    import_file,
    parse_cr_line,
    parse_wos,
)

__version__ = "0.1.0"
