"""Exception hierarchy shared by all modules.

Every error raised on a documented failure path derives from ModuliError so
the command line front end can map them to stable exit codes.
"""


class ModuliError(Exception):
    """Base class for all library errors."""

    exit_code = 10


# --- field construction / scalar arithmetic ---

class CompositeModulus(ModuliError):
    exit_code = 11


class SmallCharacteristic(ModuliError):
    exit_code = 12


class ReducibleModulus(ModuliError):
    exit_code = 13


class EmptyInput(ModuliError):
    exit_code = 14


class ZeroNorm(ModuliError):
    exit_code = 15


# --- binary forms ---

class OrderTooHigh(ModuliError):
    exit_code = 16


class SingularMatrix(ModuliError):
    exit_code = 17


class DegreeTooSmall(ModuliError):
    exit_code = 18


class ZeroForm(ModuliError):
    exit_code = 19


class WrongDegree(ModuliError):
    exit_code = 20


# --- covariants / interpolation ---

class UnknownIdentifier(ModuliError):
    exit_code = 21


class InconsistentSystem(ModuliError):
    exit_code = 22


class RankDeficiency(ModuliError):
    exit_code = 23


class Unresolved(ModuliError):
    exit_code = 25


# --- weighted projective space ---

class WeightMismatch(ModuliError):
    exit_code = 26


# --- reconstruction ---

class CacheCorrupt(ModuliError):
    exit_code = 27


class InterpolationFailure(ModuliError):
    exit_code = 27


class SingularConic(ModuliError):
    exit_code = 28


class PointNotOnConic(ModuliError):
    exit_code = 28


class AllDeterminantsVanish(ModuliError):
    exit_code = 29


class OffModuliVariety(ModuliError):
    """No octic has these invariants: one of the five relations among
    J2..J10 does not vanish at the tuple, or the model reconstructed from
    it has other invariants."""

    exit_code = 29


# --- strata ---

class GuardInconsistency(ModuliError):
    exit_code = 29


class SingularLocus(ModuliError):
    exit_code = 29


class SingularForm(ModuliError):
    exit_code = 29


# --- census ---

class MultipleRoot(ModuliError):
    exit_code = 29


class NotRationalClass(ModuliError):
    exit_code = 29


class ExhaustedCandidates(ModuliError):
    exit_code = 29


class CountMismatch(ModuliError):
    exit_code = 29
