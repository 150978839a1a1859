"""Streaming video object detection: spatio-temporal box proposals, PMI
affinity clustering across sub-sequences and class-label propagation."""

from .affinity import (affinity_matrix, collect_pairs, extract_features,
                       fit_density)
from .clustering import (ClusterDescriptor, ClusterRegistry, associate_clusters,
                         cluster_descriptor, kl_divergence, make_subsequences,
                         spectral_cluster_fixed, spectral_cluster_selftune)
from .config import ConfigError, PipelineConfig
from .core import Box, IntegralImage, iou
from .edges import (EdgeGroup, combine_edges, edge_groups, spatial_edge,
                    thin_edges)
from .motion import (accumulate_prior, block_matching_flow, inside_outside_map,
                     motion_boundary, read_flow, temporal_edge, write_flow)
from .propagation import (Detection, OracleColorClassifier, detect_stream,
                          fit_location_gaussian, propagate_localization,
                          record_offset, stream_cluster)
from .proposals import Proposal, generate_proposals, nms

__version__ = "0.1.0"
