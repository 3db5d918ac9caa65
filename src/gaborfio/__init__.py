"""Finite-dimensional Gabor frames, FIOs, and warped Gabor multipliers."""

from .core import Grid, Signal, Weight, random_signal
from .frames import (Lattice, GaborFrameSpec, enumerate_lattice,
                     separable_lattice, frame_operator, frame_bounds,
                     canonical_tight_window, dual_window, tighten, analysis,
                     synthesis, gabor_mod_norm, warped_frame_check,
                     LatticeError, NotAFrameError, is_frame, is_parseval)
from .phases import (TamePhase, CanonicalMap, linear_phase, dilation_phase,
                     chirp_phase, perturbed_phase, canonical_map,
                     chi_prime_table, chi_prime_displacement_bound,
                     NewtonDivergenceError)
from .fio import (SymbolTable, FioOperator, GaborMatrix, make_fio, fio_matrix,
                  gabor_matrix, decay_envelope_fit, transport_argmax_check,
                  constant_symbol, bandlimited_symbol, weighted_symbol,
                  InsufficientDecayRangeError)
from .multiplier import (MultiplierSymbolTable, extract_symbols,
                         assemble_truncated, truncation_error_curve,
                         warp_indices)
from .diagnostics import (DecayReport, NormEstimate, loglog_fit,
                          operator_norm, write_report)
from .windows import gaussian_window, bspline_window, box_window

__version__ = "0.1.0"
