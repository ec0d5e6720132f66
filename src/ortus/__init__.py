"""Deterministic simulator for the Ortus virtual organism.

Compile an ``.ort`` description into a layered connectome, step its
activation dynamics in lockstep with a small respiratory physiology loop,
let correlation-driven plasticity reshape the mutable synapses, and script
the whole thing with protocol files.
"""

from .connectome import (
    BuildConfig,
    BuildError,
    ChemicalSynapse,
    Connectome,
    GapJunction,
    Layer,
    Neuron,
    SciCapExceeded,
    UnsatisfiableRelationship,
    build,
    to_dot,
    write_csvs,
)
from .dsl import (
    Affect,
    Diagnostic,
    ElementKind,
    LexError,
    NetworkSpec,
    OrderError,
    ParseError,
    RelationKind,
    Severity,
    format_spec,
    parse,
    parse_source,
    tokenize,
    validate_spec,
)
from .errors import ConfigError, OrtusError
from .kernel import (
    GjMode,
    H_LEN,
    NetView,
    SimConfig,
    SimState,
    step,
)
from .physiology import PhysioConfig
from .plasticity import PlasticityConfig, plasticity_step
from .protocol import (
    Protocol,
    ProtocolError,
    Query,
    QueryError,
    RunConfig,
    TraceLog,
    control_variant,
    load_protocol,
    parse_protocol,
    run,
    summarize,
)

__version__ = "0.1.0"
