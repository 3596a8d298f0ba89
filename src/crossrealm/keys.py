"""Hierarchical key derivation and session-key minting.

Every credential in the framework is built from three 32-byte parts: a
cloud root part, a sub-domain part, and a leaf part that is either a
tenant's private part or a session part. Derivation is a keyed
pseudorandom function (HMAC-SHA256) chained down the hierarchy, with a
distinct domain-separation label per role:

    root      = HMAC(master_secret,  "crossrealm.v1.root|" + cloud_id)
    subdomain = HMAC(root,           "crossrealm.v1.subdomain|" + subdomain_id)
    private   = HMAC(subdomain,      "crossrealm.v1.private|" + signature)

Session leaf parts are not pure PRF outputs: the 16-byte session field
and a 4-byte generation counter must be recoverable from the part, so a
session leaf is laid out as

    session_id (16) || generation (4, big-endian) || binding tag (12)

where the tag is the truncated HMAC of the session field, generation,
and participant identity under the sub-domain part. Two keys minted for
one session therefore share bytes 0..19 of their leaves (the common
session field) while their root, sub-domain, and tag bytes vary with the
participant's home realm.

HMAC is computed as RFC 2104 describes it, from the key's inner and outer
SHA-256 states: each key's two states are computed once, kept in a
bounded cache, and copied for each message. The key values are validated
NamedTuples: each class checks its values when built, also through
``_make`` and ``_replace``, and holds no instance dictionary.

All values here are immutable and all derivations are pure functions,
so they are safe to share across threads without coordination.
"""

from __future__ import annotations

import hashlib
import hmac
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Protocol, Sequence

from .errors import EmptyMetadata, InvalidInput, RoleMismatch

PART_LEN = 32
SESSION_FIELD_LEN = 16
GENERATION_LEN = 4

_LABEL_ROOT = b"crossrealm.v1.root|"
_LABEL_SUBDOMAIN = b"crossrealm.v1.subdomain|"
_LABEL_PRIVATE = b"crossrealm.v1.private|"
_LABEL_SESSION = b"crossrealm.v1.session|"
_LABEL_SIGNATURE = b"crossrealm.v1.signature|"


class KeyRole(Enum):
    ROOT = "root"
    SUBDOMAIN = "subdomain"
    PRIVATE = "private"
    SESSION = "session"


# the members, bound once: on Python 3.11 every read through the enum class
# (``KeyRole.ROOT``) takes the slow path of its metaclass's ``__getattr__``
_ROOT, _SUBDOMAIN, _PRIVATE, _SESSION = (KeyRole.ROOT, KeyRole.SUBDOMAIN, KeyRole.PRIVATE,
                                         KeyRole.SESSION)

# -- HMAC-SHA256 from precomputed states (RFC 2104) -------------------------------

_BLOCK = 64  # SHA-256's block size in bytes
_INNER_PAD = bytes(b ^ 0x36 for b in range(256))  # translation tables: byte -> byte ^ pad
_OUTER_PAD = bytes(b ^ 0x5C for b in range(256))


@lru_cache(maxsize=128)  # a run uses a handful of keys, each on every tenant or session
def _hmac_states(key: bytes):
    """SHA-256 states that have absorbed the key's inner and outer padded
    blocks. Callers copy them: the cached objects are never updated."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    return hashlib.sha256(key.translate(_INNER_PAD)), hashlib.sha256(key.translate(_OUTER_PAD))


def _prf(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under ``key``; equals ``hmac.new(key,
    message, hashlib.sha256).digest()`` without its per-call key setup."""
    inner, outer = _hmac_states(key)
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


# -- key values ------------------------------------------------------------------------

# builds a key value from all its values, in field order: each class's
# ``__new__`` calls it once its checks pass
_new = tuple.__new__


@classmethod
def _checked_make(cls, values):
    # ``_make`` and ``_replace`` build through ``__new__``, so they check too
    return cls(*values)


class _KeyPartFields(NamedTuple):
    bytes: bytes
    role: KeyRole


class KeyPart(_KeyPartFields):
    """One 32-byte component of a hierarchical key."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, bytes: bytes, role: KeyRole):
        if len(bytes) != PART_LEN:
            raise InvalidInput(f"key part must be {PART_LEN} bytes, got {len(bytes)}")
        return _new(cls, (bytes, role))

    def hex(self) -> str:
        return self.bytes.hex()


class _SignatureFields(NamedTuple):
    bytes: bytes


class DigitalSignature(_SignatureFields):
    """Deterministic 32-byte digest of a tenant's personal secrets."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, bytes: bytes):
        if len(bytes) != PART_LEN:
            raise InvalidInput(f"signature must be {PART_LEN} bytes, got {len(bytes)}")
        return _new(cls, (bytes,))


class _HierarchicalKeyFields(NamedTuple):
    root: KeyPart
    subdomain: KeyPart
    leaf: KeyPart


class HierarchicalKey(_HierarchicalKeyFields):
    """A (root, sub-domain, leaf) credential triple.

    The leaf is a private part for tenant credentials or a session part
    for minted session keys.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, root: KeyPart, subdomain: KeyPart, leaf: KeyPart):
        if root.role is not _ROOT:
            raise RoleMismatch(f"root position holds a {root.role.value} part")
        if subdomain.role is not _SUBDOMAIN:
            raise RoleMismatch(f"subdomain position holds a {subdomain.role.value} part")
        if leaf.role not in (_PRIVATE, _SESSION):
            raise RoleMismatch(f"leaf position holds a {leaf.role.value} part")
        return _new(cls, (root, subdomain, leaf))

    def session_field(self) -> bytes:
        """The 16-byte session id encoded in a session leaf."""
        data, role = self[2]
        if role is not _SESSION:
            raise RoleMismatch("key has no session field: leaf is a private part")
        return data[:SESSION_FIELD_LEN]

    def generation(self) -> int:
        """The refresh counter encoded in a session leaf."""
        data, role = self[2]
        if role is not _SESSION:
            raise RoleMismatch("key has no generation: leaf is a private part")
        start = SESSION_FIELD_LEN
        return int.from_bytes(data[start:start + GENERATION_LEN], "big")


class _SessionKeySetFields(NamedTuple):
    session_id: bytes
    keys: Mapping[str, HierarchicalKey]
    generation: int


class SessionKeySet(_SessionKeySetFields):
    """All keys minted for one session at one generation.

    ``keys`` maps participant identity to that participant's key, read-only
    over a copy of the mapping given. Every leaf encodes the same
    ``session_id`` and ``generation``; root and sub-domain parts vary with
    each participant's home realm.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, session_id: bytes, keys: Mapping[str, HierarchicalKey], generation: int):
        if len(session_id) != SESSION_FIELD_LEN:
            raise InvalidInput(f"session id must be {SESSION_FIELD_LEN} bytes")
        return _new(cls, (session_id, MappingProxyType(dict(keys)), generation))


class RealmDirectory(Protocol):
    """Read handle onto the vault: resolves a realm to its stored keys."""

    def realm_keys(self, cloud_id: str, subdomain_id: str) -> tuple[KeyPart, KeyPart]:
        ...


# (identity, cloud_id, subdomain_id)
Participant = tuple[str, str, str]


def derive_root_key(cloud_id: str, master_secret: bytes) -> KeyPart:
    """Derive a cloud's root part from its master secret.

    Deterministic; distinct cloud ids give distinct parts.
    """
    _check_id("cloud", cloud_id)
    if not isinstance(master_secret, (bytes, bytearray)):
        raise InvalidInput(f"master_secret must be bytes, not {type(master_secret).__name__}")
    if not master_secret:
        raise InvalidInput("master_secret must be non-empty")
    # as bytes, which the cache of HMAC states can key on
    return KeyPart(_prf(bytes(master_secret), _LABEL_ROOT + cloud_id.encode()), _ROOT)


def derive_subdomain_key(root: KeyPart, subdomain_id: str) -> KeyPart:
    """Derive a sub-domain part bound to its parent cloud root."""
    if root.role is not _ROOT:
        raise RoleMismatch(f"expected a root part, got {root.role.value}")
    _check_id("sub-domain", subdomain_id)
    return KeyPart(_prf(root.bytes, _LABEL_SUBDOMAIN + subdomain_id.encode()), _SUBDOMAIN)


def issue_private_key(signature: DigitalSignature, subdomain: KeyPart) -> KeyPart:
    """Issue a tenant's private part bound to (signature, sub-domain)."""
    key, role = subdomain
    if role is not _SUBDOMAIN:
        raise RoleMismatch(f"expected a subdomain part, got {role.value}")
    return KeyPart(_prf(key, _LABEL_PRIVATE + signature.bytes), _PRIVATE)


def derive_signature(tenant_id: str, extension_metadata: Mapping[str, str]) -> DigitalSignature:
    """Digest a tenant's personal secrets into a digital signature.

    The serialization is canonical (metadata classes sorted by name) and
    includes the tenant id, so two tenants with identical secrets still
    sign differently. The tenant id, metadata classes and values must be
    text, and the metadata non-empty (else EmptyMetadata); the canonical
    text is encoded as UTF-8 once, as each part's encoding joined would be.
    """
    _check_id("tenant", tenant_id)
    if not extension_metadata:
        raise EmptyMetadata("extension metadata is required to generate a signature")
    try:
        text = tenant_id + "|" + "\x1f".join(map("\x1e".join, sorted(extension_metadata.items())))
    except (TypeError, AttributeError):  # not a mapping, or a part that is not text
        raise InvalidInput(_not_text(extension_metadata)) from None
    return DigitalSignature(hashlib.sha256(_LABEL_SIGNATURE + text.encode()).digest())


def _check_id(kind: str, value) -> None:
    """A cloud, sub-domain or tenant id is non-empty text; any other raises InvalidInput."""
    if not isinstance(value, str):
        raise InvalidInput(f"{kind} id {value!r} is not text")
    if not value:
        raise InvalidInput(f"{kind} id {value!r} is empty")


def _not_text(extension_metadata: Mapping) -> str:
    """Names metadata that is not a mapping, or the first of its classes and
    values that is not text."""
    if not isinstance(extension_metadata, Mapping):
        return f"extension metadata {extension_metadata!r} is not a mapping"
    for cls, value in extension_metadata.items():
        if not isinstance(cls, str):
            return f"metadata class {cls!r} is not text"
        if not isinstance(value, str):
            return f"metadata value {value!r} of class {cls!r} is not text"
    return "metadata must be text"


def _session_leaf(subdomain: KeyPart, session_id: bytes, generation: int, identity: str) -> KeyPart:
    gen = generation.to_bytes(GENERATION_LEN, "big")
    tag = _prf(subdomain.bytes, _LABEL_SESSION + session_id + gen + b"|" + identity.encode())
    tag_len = PART_LEN - SESSION_FIELD_LEN - GENERATION_LEN
    return KeyPart(session_id + gen + tag[:tag_len], _SESSION)


def _mint(session_id: bytes, participants: Sequence[Participant],
          vault: RealmDirectory, generation: int) -> SessionKeySet:
    if not isinstance(participants, (list, tuple)) or not participants:
        raise InvalidInput(f"participants {participants!r} are not a non-empty sequence")
    keys = {}
    for participant in participants:
        if type(participant) is not tuple or len(participant) != 3:
            raise InvalidInput(f"participant {participant!r} is no (tenant, cloud, sub-domain)")
        identity, cloud_id, subdomain_id = participant
        _check_id("tenant", identity)
        root, subdomain = vault.realm_keys(cloud_id, subdomain_id)  # checks the realm's ids
        leaf = _session_leaf(subdomain, session_id, generation, identity)
        keys[identity] = HierarchicalKey(root, subdomain, leaf)
    return SessionKeySet(session_id, keys, generation)


def mint_session_keys(session_id: bytes, participants: Sequence[Participant],
                      vault: RealmDirectory) -> SessionKeySet:
    """Mint one key per participant, all sharing the session field.

    Participants are a non-empty list or tuple of (tenant, cloud, sub-domain)
    tuples of text, each a tenant of a realm the vault knows: anything else
    raises InvalidInput, and an unknown realm UnregisteredRealm (from the
    vault handle, which checks the realm's ids).
    """
    if len(session_id) != SESSION_FIELD_LEN:
        raise InvalidInput(f"session id must be {SESSION_FIELD_LEN} bytes")
    return _mint(session_id, participants, vault, generation=0)


def refresh_session(key_set: SessionKeySet, new_participants: Sequence[Participant],
                    vault: RealmDirectory) -> SessionKeySet:
    """Re-mint the set for a new participant list, bumping the generation.

    The bump happens even when the membership is unchanged; keys of any
    earlier generation stop verifying against the returned set.
    """
    return _mint(key_set.session_id, new_participants, vault,
                 generation=key_set.generation + 1)


def verify_session_key(key: HierarchicalKey, key_set: SessionKeySet) -> bool:
    """True iff ``key`` is a member of the set's current generation.

    Each member's key bytes are compared in constant time.
    """
    root, subdomain, leaf = key
    if leaf.role is not _SESSION:
        return False
    presented = root.bytes + subdomain.bytes + leaf.bytes
    for root, subdomain, leaf in key_set.keys.values():
        if hmac.compare_digest(presented, root.bytes + subdomain.bytes + leaf.bytes):
            return True
    return False
