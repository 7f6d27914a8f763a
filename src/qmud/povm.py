"""Three-outcome unambiguous discrimination and the per-user receiver.

The reduced register qubit is one of two non-orthogonal states: the
reference state (1, 0) when the probed index is absent, or the tilted
state with overlap sqrt((N_s-1)/N_s) when present.  Three operators
discriminate them:

    E1 = alpha |1><1|            fires only when the index is present
    E2 = beta  |psi><psi|        fires only when the index is absent,
                                 psi = sqrt(1/N_s)|0> - sqrt(1-1/N_s)|1>
    E3 = I - E1 - E2             inconclusive

E3 stays positive semidefinite exactly when alpha <= (1-beta)/(1-beta/N_s);
the equality surface (det E3 = 0) wastes none of the gain budget.  A
measurement block runs two such measurements on the same state, one tuned
to confirm presence (alpha=1, beta=0) and one to confirm absence (alpha=0,
beta=1), which doubles the per-shot conclusive probability relative to the
symmetric operating point.  The receiver runs one block bank against the
bit-1 register and one against the bit-0 register, repeating inconclusive
banks up to a budget, and maps the pair of verdicts to a user decision.

The operators are the model: ``measurement_block`` samples them shot by
shot, and ``detect_user`` runs it on every open bank each round.  The
harness runs ``detect_user_rows``, which takes the same draws and reaches
the same decisions for a block of trials at once, each on its own stream,
by one threshold compare per bank and round on the memberships and
populations read from its register bank; the tests check it against
``detect_user``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EmptyRegister, InternalInconsistency, NotPositive, ValidationError
from .registers import SparseRegister
from .rng import SplitMix64, TrialStreams

# Eigenvalue slack accepted before an operator is rejected as indefinite;
# rank-deficient 2x2 matrices jitter at ~1e-16 but never near this.
PSD_REJECT_TOL = 1e-9


class MeasurementOutcome(enum.Enum):
    E1 = "E1"
    E2 = "E2"
    E3 = "E3"


class Decision(enum.Enum):
    BIT_ONE = "bit_one"
    BIT_ZERO = "bit_zero"
    NO_MESSAGE = "no_message"
    AMBIGUOUS = "ambiguous"
    INCONCLUSIVE = "inconclusive"

    @property
    def bit_value(self) -> int | None:
        if self is Decision.BIT_ONE:
            return 1
        if self is Decision.BIT_ZERO:
            return -1
        return None


@dataclass(frozen=True)
class UserDecision:
    kind: Decision
    reps_used: int


@dataclass(frozen=True)
class QubitState:
    """Two-level reduction of a register relative to one basis index."""

    c0: float
    c1: float

    def __post_init__(self):
        if abs(self.c0 * self.c0 + self.c1 * self.c1 - 1.0) > 1e-12:
            raise ValidationError(f"qubit amplitudes not normalized: ({self.c0}, {self.c1})")

    @classmethod
    def absent(cls) -> "QubitState":
        return cls(1.0, 0.0)

    @classmethod
    def present(cls, n_s: int) -> "QubitState":
        return cls(*present_qubit_amplitudes(n_s))


@lru_cache(maxsize=None)
def present_qubit_amplitudes(n_s: int) -> tuple[float, float]:
    """(c0, c1) of the reduced qubit when the probed index is stored.

    Shared by the register reduction and the measurement operators so both
    sides use bit-identical floats; the unambiguous-discrimination zero
    probabilities then cancel exactly.
    """
    if n_s < 1:
        raise EmptyRegister("population must be >= 1")
    return math.sqrt((n_s - 1.0) / n_s), math.sqrt(1.0 / n_s)


def reduce_to_qubit(reg: SparseRegister, v: int) -> QubitState:
    """Collapse the register to the two-level state seen by the measurement.

    The component along |v> carries amplitude 1/sqrt(N_s) if stored, else
    the state is exactly the reference state (1, 0).
    """
    present = QubitState.present(reg.n_s)  # raises EmptyRegister for N_s = 0
    return present if v in reg else QubitState.absent()


@dataclass(frozen=True)
class PovmTriple:
    """The three operators with their gains and the population they fit."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    alpha: float
    beta: float
    n_s: int


def solve_alpha_for_beta(beta: float, n_s: int) -> float:
    """Largest confirm gain keeping E3 positive: alpha = (1-beta)/(1-beta/N_s).

    The returned pair sits on the det(E3) = 0 boundary.  At N_s = 1 the
    states are orthogonal and alpha = 1 for every beta (the formula's 0/0
    at beta = 1 is filled by continuity).
    """
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    if n_s < 1:
        raise DomainError(f"population must be >= 1, got {n_s}")
    if n_s == 1:
        return 1.0
    return (1.0 - beta) / (1.0 - beta / n_s)


def symmetric_gain(n_s: int) -> float:
    """The equal-gain operating point alpha = beta = N_s - sqrt(N_s(N_s-1)).

    Evaluated in the rationalized form N_s / (N_s + sqrt(N_s(N_s-1))) to
    avoid cancellation; decreases from 1 toward 1/2 as N_s grows.
    """
    if n_s < 1:
        raise DomainError(f"population must be >= 1, got {n_s}")
    return n_s / (n_s + math.sqrt(n_s * (n_s - 1.0)))


def build_povm(alpha: float, beta: float, n_s: int) -> PovmTriple:
    """Assemble and validate the operator triple for gains (alpha, beta)."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    if n_s < 1:
        raise DomainError(f"population must be >= 1, got {n_s}")
    c0, c1 = present_qubit_amplitudes(n_s)
    psi = np.array([c1, -c0])
    e1 = np.array([[0.0, 0.0], [0.0, alpha]])
    e2 = beta * np.outer(psi, psi)
    e3 = np.eye(2) - e1 - e2
    if np.linalg.eigvalsh(e3).min() < -PSD_REJECT_TOL:
        raise NotPositive(
            f"E3 indefinite for alpha={alpha}, beta={beta}, N_s={n_s}")
    for m in (e1, e2, e3):
        m.setflags(write=False)
    return PovmTriple(e1, e2, e3, float(alpha), float(beta), int(n_s))


@lru_cache(maxsize=None)
def confirm_reject_pair(n_s: int) -> tuple[PovmTriple, PovmTriple]:
    """The two parallel-measurement endpoints.

    The confirm branch (alpha=1, beta=0) maximizes the chance of detecting
    a stored index, at 1/N_s per shot; the reject branch (alpha=0, beta=1)
    does the same for absence.  Each branch's forbidden outcome keeps
    probability exactly zero, so together they never contradict.
    """
    return build_povm(1.0, 0.0, n_s), build_povm(0.0, 1.0, n_s)


def _conclusive_probabilities(povm: PovmTriple, state: QubitState) -> tuple[float, float]:
    """(p1, p2) via the rank-one factors alpha*<1|s>**2 and beta*<psi|s>**2.

    With the shared amplitude helper these cancel the impossible-outcome
    probabilities to exactly 0.0: conclusive outcomes are error-free.
    """
    c0, c1 = state.c0, state.c1
    full0, full1 = present_qubit_amplitudes(povm.n_s)
    ip = full1 * c0 - full0 * c1
    return povm.alpha * c1 * c1, povm.beta * ip * ip


def outcome_probabilities(povm: PovmTriple, state: QubitState) -> tuple[float, float, float]:
    """Born probabilities (p1, p2, p3) of the three outcomes."""
    p1, p2 = _conclusive_probabilities(povm, state)
    c0, c1 = state.c0, state.c1
    e3 = povm.e3
    p3 = float(c0 * c0 * e3[0, 0] + 2.0 * c0 * c1 * e3[0, 1] + c1 * c1 * e3[1, 1])
    return (max(p1, 0.0), max(p2, 0.0), max(p3, 0.0))


def sample_outcome(povm: PovmTriple, state: QubitState, rng: SplitMix64) -> MeasurementOutcome:
    """One measurement: inverse-CDF over (p1, p2, p3) from a single uniform.

    Only the two conclusive thresholds are needed; everything past p1 + p2
    is E3.
    """
    p1, p2 = _conclusive_probabilities(povm, state)
    u = rng.uniform()
    if u < p1:
        return MeasurementOutcome.E1
    if u < p1 + p2:
        return MeasurementOutcome.E2
    return MeasurementOutcome.E3


def combine_block_outcomes(confirm: MeasurementOutcome,
                           reject: MeasurementOutcome) -> MeasurementOutcome:
    """Decision logic of one block: any E1 wins, else any E2, else E3.

    A simultaneous (E1, E2) has probability exactly zero under every input
    state; seeing one means the sampler or operators are corrupted.
    """
    pair = {confirm, reject}
    if MeasurementOutcome.E1 in pair and MeasurementOutcome.E2 in pair:
        raise InternalInconsistency(
            "confirm and reject branches fired together; this event has probability 0")
    if MeasurementOutcome.E1 in pair:
        return MeasurementOutcome.E1
    if MeasurementOutcome.E2 in pair:
        return MeasurementOutcome.E2
    return MeasurementOutcome.E3


def measurement_block(reg: SparseRegister, v: int, rng: SplitMix64) -> MeasurementOutcome:
    """Measure one register against index v with both branch operators.

    Draw order is fixed: confirm branch first, then reject branch.
    """
    state = reduce_to_qubit(reg, v)  # before build_povm, so an empty register is EmptyRegister
    confirm, reject = confirm_reject_pair(reg.n_s)
    out_confirm = sample_outcome(confirm, state, rng)
    out_reject = sample_outcome(reject, state, rng)
    return combine_block_outcomes(out_confirm, out_reject)


def select_decision(bank1: MeasurementOutcome, bank0: MeasurementOutcome) -> Decision:
    """Map the two conclusive bank verdicts to a user decision."""
    e1, e2 = MeasurementOutcome.E1, MeasurementOutcome.E2
    decision = {(e1, e2): Decision.BIT_ONE, (e2, e1): Decision.BIT_ZERO,
                (e2, e2): Decision.NO_MESSAGE, (e1, e1): Decision.AMBIGUOUS}.get((bank1, bank0))
    if decision is None:
        raise ValidationError(f"bank verdicts must be conclusive, got {(bank1, bank0)}")
    return decision


def detect_user(reg1: SparseRegister, reg0: SparseRegister, v: int,
                reps_max: int, rng: SplitMix64) -> UserDecision:
    """Full receiver for one user: two block banks plus selection.

    Each round runs measurement_block on every still-inconclusive bank
    (bank1 before bank0, fresh independent shots, registers unchanged)
    until both banks are conclusive or the budget runs out.  reps_used
    reports the larger of the two banks' block counts.
    """
    if reps_max < 1:
        raise ValidationError(f"reps_max must be >= 1, got {reps_max}")

    verdicts = [MeasurementOutcome.E3, MeasurementOutcome.E3]
    for rep in range(1, reps_max + 1):
        for b, reg in enumerate((reg1, reg0)):
            if verdicts[b] is MeasurementOutcome.E3:
                verdicts[b] = measurement_block(reg, v, rng)
        if MeasurementOutcome.E3 not in verdicts:
            return UserDecision(select_decision(*verdicts), rep)
    return UserDecision(Decision.INCONCLUSIVE, reps_max)


# detect_user_rows' decision codes: a conclusive user gets
# 2 * (v in bit-1 register) + (v in bit-0 register), an inconclusive one 4.
DECISIONS = (Decision.NO_MESSAGE, Decision.BIT_ZERO, Decision.BIT_ONE,
             Decision.AMBIGUOUS, Decision.INCONCLUSIVE)


def detect_user_rows(stored1: np.ndarray, stored0: np.ndarray, n_s1: int, n_s0: int,
                     reps_max: int, streams: TrialStreams) -> tuple[np.ndarray, np.ndarray]:
    """detect_user for every row, given v[t]'s membership in both registers.

    ``stored1[t]`` and ``stored0[t]`` say whether the bit-1 and the bit-0
    register, of populations ``n_s1`` and ``n_s0``, store row t's received
    index; row t draws from row t of ``streams``.  Returns (decision code,
    reps_used) arrays; a code indexes DECISIONS.  Each round, every
    still-open bank of every row draws its confirm and then its reject
    uniform, bank1 before bank0.  Membership fixes the one outcome a bank
    can reach: E1 if the index is stored, when the confirm uniform is below
    c1*c1, else E2, when the reject uniform is.
    """
    if reps_max < 1:
        raise ValidationError(f"reps_max must be >= 1, got {reps_max}")

    banks = []
    for stored, n_s in ((stored1, n_s1), (stored0, n_s0)):
        c1 = present_qubit_amplitudes(n_s)[1]  # raises EmptyRegister for N_s = 0
        banks.append((stored, c1 * c1))
    done = np.zeros((2, stored1.size), dtype=bool)
    reps = np.zeros((2, stored1.size), dtype=np.int64)
    for rep in range(1, reps_max + 1):
        for b, (stored, threshold) in enumerate(banks):
            rows = np.flatnonzero(~done[b])
            u = streams.uniforms(2, rows)
            done[b, rows] = np.where(stored[rows], u[:, 0], u[:, 1]) < threshold
            reps[b, rows] = rep
        if done.all():
            break
    codes = np.where(done.all(axis=0), 2 * stored1 + stored0, 4)
    return codes, reps.max(axis=0)


def povm_table_rows(n_s_values, betas) -> list[tuple]:
    """Analytic outcome probabilities under both states for a gain grid.

    One row per (N_s, beta, state): (n_s, beta, alpha, state, p1, p2, p3)
    with alpha solved from the positivity boundary.
    """
    rows = []
    for n_s in n_s_values:
        for beta in betas:
            alpha = solve_alpha_for_beta(beta, n_s)
            povm = build_povm(alpha, beta, n_s)
            for label, state in (("absent", QubitState.absent()),
                                 ("present", QubitState.present(n_s))):
                p1, p2, p3 = outcome_probabilities(povm, state)
                rows.append((n_s, beta, alpha, label, p1, p2, p3))
    return rows
