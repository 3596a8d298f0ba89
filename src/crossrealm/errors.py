"""Exception hierarchy shared by all crossrealm modules, and their number test."""

import sys


def is_number(value: object) -> bool:
    """An int or a float; neither a bool nor an int too large for a float is one."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


class CrossRealmError(Exception):
    """Base class for every error raised by this package."""


# -- key derivation ---------------------------------------------------------

class InvalidInput(CrossRealmError):
    """An argument is empty, the wrong length, or otherwise unusable."""


class RoleMismatch(CrossRealmError):
    """A key part was used in a position its role does not permit."""


class UnregisteredRealm(CrossRealmError):
    """A participant names a cloud or sub-domain the vault does not know."""


# -- vault ------------------------------------------------------------------

class AlreadyRegistered(CrossRealmError):
    """The cloud, sub-domain, or tenant is already present in the vault."""


class UnknownCloud(UnregisteredRealm):
    """No cloud folder with that id exists."""


class UnknownSubdomain(UnregisteredRealm):
    """No sub-domain subfolder with that id exists under the cloud."""


class UnknownTenant(CrossRealmError):
    """No tenant record with that id exists anywhere in the vault."""


class EmptyMetadata(InvalidInput):
    """A signature, and so a tenant's registration, needs at least one metadata class."""


# -- harness ----------------------------------------------------------------

class ScenarioParseError(CrossRealmError):
    """The scenario or expectations file is not well-formed."""


class ScenarioValidationError(CrossRealmError):
    """The scenario parsed but a field value is out of range.

    The offending field name is carried in ``field``.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class UnknownMetric(CrossRealmError):
    """An expectations entry names a metric the report does not contain."""
