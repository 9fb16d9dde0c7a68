"""Data linkage dynamics.

States of computations over dynamic data structures are finite sets of
atomic links (spot links, field links, partial field links, value
associations).  This package provides the canonical state algebra, the
priority-guarded semantics of every action including garbage
reclamation, an independent set-based semantics with a differential
checker between the two, and a thread/service interpreter that replays
whole computations.
"""

from .actions import Act, all_actions, all_basic_actions, all_reclaim_actions
from .errors import (BudgetExhausted, DldError, NonDeterministicState,
                     ParseError, UndeclaredName, UnknownFocus)
from .linkage import DataLinkage, flink, normalize, pflink, slink, valass
from .meadow import Meadow
from .parsing import parse_action, parse_action_list, parse_linkage, parse_term
from .reclaim import (clear_refs, effect_dldr, fgc, perform_dldr,
                      perform_each, rgc, safe_dispose, yield_dldr)
from .refine import check_commutation, enumerate_states, represent, retrieve
from .semantics import RuleFire, effect, evaluate, perform, yield_
from .set_model import (SetState, effect_set_reclaim, incycle, is_tight,
                        perform_set, perform_set_each, perform_set_reclaim,
                        reach_atoms, reach_from, sd_set, tighten, ud_set,
                        yield_set_reclaim)
from .threads import (BLOCKED, DEADLOCK, STOP, TAU, Call, DldMachine,
                      DldService, Post, Ref, Run, Service, ThreadSpec, run,
                      step_thread, use)
from .universe import Universe, small_universe

__version__ = "0.1.0"
