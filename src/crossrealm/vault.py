"""The session authority's security vault and multi-tenant registry.

The vault is a strictly hierarchical in-memory store: cloud folders hold
the authoritative root keys, sub-domain subfolders hold the sub-domain
keys, and tenant records live under exactly one sub-domain, whose keys
are its tenants' IDr and IDs. Membership verification matches a
presented (IDr, IDs) pair against the folders and never mutates anything.

Registrations are the only mutations and require exclusive access to the
vault; reads may proceed concurrently. A snapshot, one JSON document,
keeps only what registration cannot derive (each cloud's root key, in
lowercase hex, and its sub-domains' and tenants' names, details and
metadata), and loading one registers them again. A tenant record is a
NamedTuple, built by position, whose details and metadata are read-only views.
"""

from __future__ import annotations

import hmac
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from . import keys as keylib
from .errors import (
    AlreadyRegistered,
    EmptyMetadata,
    InvalidInput,
    UnknownCloud,
    UnknownSubdomain,
    UnknownTenant,
)
from .keys import DigitalSignature, KeyPart, KeyRole


class TenantRecord(NamedTuple):
    """One registered tenant: provider details, personal secrets, credentials.
    The two mappings are read-only views over the vault's own copies, so a
    record handed out by ``find_member`` cannot change what the vault holds."""

    tenant_id: str
    cloud_id: str
    subdomain_id: str
    primary_details: Mapping[str, str]
    extension_metadata: Mapping[str, str]
    signature: DigitalSignature


def _frozen(mapping: Mapping[str, str]) -> Mapping[str, str]:
    """A read-only view over a private copy of the mapping."""
    return MappingProxyType(dict(mapping))


def _check_details(details: Mapping[str, str]) -> None:
    """Primary details map text names to text values, as metadata does;
    anything else raises InvalidInput naming it."""
    # a dict is tested first: isinstance of an ABC costs several times as much
    if not (isinstance(details, dict) or isinstance(details, Mapping)):
        raise InvalidInput(f"primary details {details!r} are not a mapping")
    for name, value in details.items():
        if not isinstance(name, str):
            raise InvalidInput(f"primary detail name {name!r} is not text")
        if not isinstance(value, str):
            raise InvalidInput(f"primary detail value {value!r} of {name!r} is not text")


def _check_lookup(tenant_id: str) -> None:
    """A tenant id looked up must be text, which hashes; an empty one is
    looked up as any other, since phase 5 looks up whatever text a request
    names, and finds nothing."""
    if not isinstance(tenant_id, str):
        raise InvalidInput(f"tenant id {tenant_id!r} is not text")


@dataclass
class _SubdomainFolder:
    subdomain_key: KeyPart
    tenants: dict[str, TenantRecord] = field(default_factory=dict)


@dataclass
class _CloudFolder:
    root_key: KeyPart
    subdomains: dict[str, _SubdomainFolder] = field(default_factory=dict)


class Vault:
    """Cloud folders, sub-domain subfolders, and tenant records."""

    def __init__(self):
        self.clouds: dict[str, _CloudFolder] = {}

    # -- registration (mutating) -------------------------------------------

    def register_cloud(self, cloud_id: str, master_secret: bytes) -> KeyPart:
        """Create a cloud folder and derive its root key."""
        root = keylib.derive_root_key(cloud_id, master_secret)  # checks the id before its lookup
        if cloud_id in self.clouds:
            raise AlreadyRegistered(f"cloud {cloud_id!r} already registered")
        self.clouds[cloud_id] = _CloudFolder(root_key=root)
        return root

    def register_subdomain(self, cloud_id: str, subdomain_id: str) -> KeyPart:
        """Create a sub-domain subfolder and derive its key from the cloud root."""
        cloud = self._cloud(cloud_id)
        sub = keylib.derive_subdomain_key(cloud.root_key, subdomain_id)  # checks the id first
        if subdomain_id in cloud.subdomains:
            raise AlreadyRegistered(f"subdomain {subdomain_id!r} already under {cloud_id!r}")
        cloud.subdomains[subdomain_id] = _SubdomainFolder(subdomain_key=sub)
        return sub

    def register_tenant(self, cloud_id: str, subdomain_id: str, tenant_id: str,
                        primary_details: Mapping[str, str],
                        extension_metadata: Mapping[str, str],
                        ) -> tuple[KeyPart, KeyPart, KeyPart]:
        """Store a tenant record and issue its credentials.

        Returns (IDr, IDs, private part). The signature is computed from
        the personal secrets; the private part is issued to the caller
        and deliberately not stored in the vault.
        """
        cloud, folder = self._subdomain(cloud_id, subdomain_id)
        signature = keylib.derive_signature(tenant_id, extension_metadata)  # checks both first
        self._refuse_held(tenant_id)
        _check_details(primary_details)
        folder.tenants[tenant_id] = TenantRecord(tenant_id, cloud_id, subdomain_id,
                                                 _frozen(primary_details),
                                                 _frozen(extension_metadata), signature)
        ids = folder.subdomain_key
        return cloud.root_key, ids, keylib.issue_private_key(signature, ids)

    # -- verification (read-only) ------------------------------------------

    def verify_membership(self, idr: KeyPart, ids: KeyPart) -> bool:
        """True iff the (IDr, IDs) pair names a sub-domain folder that holds a
        tenant; an IDr or IDs that is not a KeyPart raises InvalidInput."""
        folder = self._realm(idr, ids)
        return folder is not None and bool(folder.tenants)

    def find_member(self, tenant_id: str, idr: KeyPart, ids: KeyPart) -> TenantRecord | None:
        """The tenant's record if it is registered in the realm the pair names,
        else None; a tenant id that is not text, or an IDr or IDs that is not
        a KeyPart, raises InvalidInput."""
        _check_lookup(tenant_id)
        folder = self._realm(idr, ids)
        return None if folder is None else folder.tenants.get(tenant_id)

    def match_personal_secrets(self, tenant_id: str, answers: Mapping[str, str]) -> bool:
        """True iff every stored metadata class is answered with the stored
        value; an unregistered tenant raises UnknownTenant, and a tenant id
        that is not text InvalidInput."""
        record = self._tenant(tenant_id)
        if record is None:
            raise UnknownTenant(f"tenant {tenant_id!r} not registered")
        return all(answers.get(cls) == value
                   for cls, value in record.extension_metadata.items())

    def realm_keys(self, cloud_id: str, subdomain_id: str) -> tuple[KeyPart, KeyPart]:
        """(root, sub-domain) keys for a realm; the minting read handle. An
        id that is empty or not text raises InvalidInput naming it, and an
        unknown realm UnknownCloud or UnknownSubdomain, each an
        UnregisteredRealm."""
        cloud, folder = self._subdomain(cloud_id, subdomain_id)
        return cloud.root_key, folder.subdomain_key

    # -- snapshots -----------------------------------------------------------

    def to_snapshot(self) -> dict:
        """The vault as one JSON document of what registration cannot derive."""
        return {
            "clouds": {
                cid: {
                    "root_key": cloud.root_key.hex(),
                    "subdomains": {
                        sid: {
                            "tenants": {
                                tid: {
                                    "primary_details": dict(rec.primary_details),
                                    "extension_metadata": dict(rec.extension_metadata),
                                }
                                for tid, rec in folder.tenants.items()
                            },
                        }
                        for sid, folder in cloud.subdomains.items()
                    },
                }
                for cid, cloud in self.clouds.items()
            }
        }

    def save_snapshot(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_snapshot(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_snapshot(cls, doc: dict) -> "Vault":
        """The vault that registration builds from a snapshot's root keys,
        names, details and metadata; no other key of the document is read.
        A document of the wrong shape raises InvalidInput naming its part."""
        vault, part = cls(), "snapshot"
        try:
            for cid, cdoc in doc["clouds"].items():
                part = f"snapshot cloud {cid!r}"
                keylib._check_id("cloud", cid)  # as register_cloud checks it
                vault.clouds[cid] = _CloudFolder(KeyPart(bytes.fromhex(cdoc["root_key"]), KeyRole.ROOT))
                for sid, sdoc in cdoc["subdomains"].items():
                    part = f"snapshot sub-domain {sid!r} of {cid}"
                    vault.register_subdomain(cid, sid)
                    for tid, tdoc in sdoc["tenants"].items():
                        part = f"snapshot tenant {tid!r} of {cid}/{sid}"
                        vault.register_tenant(cid, sid, tid, tdoc["primary_details"],
                                              tdoc["extension_metadata"])
        except (EmptyMetadata, AlreadyRegistered) as exc:  # of the type registration raises
            raise type(exc)(f"{part}: {exc}") from exc
        except (InvalidInput, KeyError, TypeError, AttributeError, ValueError) as exc:
            detail = f"no {exc}" if isinstance(exc, KeyError) else exc
            raise InvalidInput(f"{part}: {detail}") from exc
        return vault

    @classmethod
    def load_snapshot(cls, path: str | Path) -> "Vault":
        """The vault a snapshot file holds; a file that cannot be read, holds
        no JSON text or is of the wrong shape raises InvalidInput naming it."""
        try:
            return cls.from_snapshot(json.loads(Path(path).read_text()))
        except (EmptyMetadata, AlreadyRegistered) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        except (InvalidInput, OSError, ValueError) as exc:
            detail = exc.strerror if isinstance(exc, OSError) else exc
            raise InvalidInput(f"{path}: {detail}") from exc

    # -- internals -------------------------------------------------------------

    def _realm(self, idr: KeyPart, ids: KeyPart) -> _SubdomainFolder | None:
        """The sub-domain folder whose (root, sub-domain) keys are the pair."""
        for name, part in (("IDr", idr), ("IDs", ids)):
            if not isinstance(part, KeyPart):
                raise InvalidInput(f"{name} {part!r} is not a key part")
        root, subdomain = idr.bytes, ids.bytes
        for cloud in self.clouds.values():
            if not hmac.compare_digest(cloud.root_key.bytes, root):
                continue
            for folder in cloud.subdomains.values():
                if hmac.compare_digest(folder.subdomain_key.bytes, subdomain):
                    return folder
        return None

    def _cloud(self, cloud_id: str) -> _CloudFolder:
        keylib._check_id("cloud", cloud_id)  # an id that is not text may not hash
        cloud = self.clouds.get(cloud_id)
        if cloud is None:
            raise UnknownCloud(f"cloud {cloud_id!r} not registered")
        return cloud

    def _subdomain(self, cloud_id: str, subdomain_id: str) -> tuple[_CloudFolder, _SubdomainFolder]:
        """The realm's cloud folder and its sub-domain subfolder."""
        cloud = self._cloud(cloud_id)
        keylib._check_id("sub-domain", subdomain_id)
        folder = cloud.subdomains.get(subdomain_id)
        if folder is None:
            raise UnknownSubdomain(f"subdomain {subdomain_id!r} not under cloud {cloud_id!r}")
        return cloud, folder

    def _tenant(self, tenant_id: str) -> TenantRecord | None:
        """The tenant's record under whichever sub-domain holds it; None if none does."""
        _check_lookup(tenant_id)
        for cloud in self.clouds.values():
            for folder in cloud.subdomains.values():
                record = folder.tenants.get(tenant_id)
                if record is not None:
                    return record
        return None

    def _refuse_held(self, tenant_id: str) -> None:
        """A tenant record lives under exactly one sub-domain, so an id that
        one already holds is refused."""
        held = self._tenant(tenant_id)
        if held is not None:
            raise AlreadyRegistered(
                f"tenant {tenant_id!r} already under {held.cloud_id}/{held.subdomain_id}")
