"""Deterministic simulator for the Ortus virtual organism.

Compile an ``.ort`` description into a layered connectome, step its
activation dynamics in lockstep with a small respiratory physiology loop,
let correlation-driven plasticity reshape the mutable synapses, and script
the whole thing with protocol files.  The package re-exports the names of
one experiment's path; everything else is imported from its own module.
"""

from .connectome import BuildConfig, build
from .dsl import parse_source
from .errors import OrtusError
from .kernel import NetView
from .plasticity import H_LEN
from .protocol import Query, control_variant, experiment, load_protocol, run, summarize

__version__ = "0.1.0"
