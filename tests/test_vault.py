"""Tests for the security vault: registration, membership, snapshots."""

import itertools
import json
import re

import pytest

from crossrealm.errors import (
    AlreadyRegistered,
    EmptyMetadata,
    InvalidInput,
    UnknownCloud,
    UnknownSubdomain,
    UnknownTenant,
)
from crossrealm.keys import derive_root_key, derive_signature, derive_subdomain_key
from crossrealm.vault import Vault

ZERO_SECRET = b"\x00" * 32
META = {"spouse": "alice", "pet": "rex", "first_school": "hill"}


def small_registry() -> Vault:
    """Two clouds, two sub-domains each, one tenant per sub-domain."""
    vault = Vault()
    for cloud in ("CloudA", "CloudB"):
        vault.register_cloud(cloud, b"secret-" + cloud.encode())
        for sub in ("s1", "s2"):
            vault.register_subdomain(cloud, sub)
            vault.register_tenant(cloud, sub, f"{cloud}-{sub}-user", {}, META)
    return vault


# -- registration -----------------------------------------------------------

def test_register_two_clouds():
    vault = Vault()
    vault.register_cloud("CloudA", b"sa")
    vault.register_cloud("CloudB", b"sb")
    assert set(vault.clouds) == {"CloudA", "CloudB"}


def test_register_cloud_twice_rejected():
    vault = Vault()
    vault.register_cloud("CloudA", b"sa")
    with pytest.raises(AlreadyRegistered):
        vault.register_cloud("CloudA", b"sa")


def test_root_key_matches_derivation_oracle():
    vault = Vault()
    stored = vault.register_cloud("CloudA", ZERO_SECRET)
    assert stored == derive_root_key("CloudA", ZERO_SECRET)
    assert stored.bytes.hex() == "3655a002a690b780618433e0164dec46c5e0d6a4445a597216a8bb0adc012d5a"


def test_register_subdomain_requires_cloud():
    vault = Vault()
    with pytest.raises(UnknownCloud):
        vault.register_subdomain("CloudX", "hr")


def test_register_subdomain_and_duplicate():
    vault = Vault()
    vault.register_cloud("CloudA", b"sa")
    vault.register_subdomain("CloudA", "hr")
    assert "hr" in vault.clouds["CloudA"].subdomains
    with pytest.raises(AlreadyRegistered):
        vault.register_subdomain("CloudA", "hr")


def test_subdomain_key_deterministic_across_builds():
    keys = []
    for _ in range(2):
        vault = Vault()
        vault.register_cloud("CloudA", b"fixed")
        keys.append(vault.register_subdomain("CloudA", "hr"))
    assert keys[0].bytes == keys[1].bytes


def test_register_tenant_and_verify_membership():
    vault = Vault()
    vault.register_cloud("CloudA", b"sa")
    vault.register_subdomain("CloudA", "hr")
    idr, ids, private = vault.register_tenant("CloudA", "hr", "t1", {"plan": "x"}, META)
    assert vault.verify_membership(idr, ids)
    assert private.bytes.hex() not in json.dumps(vault.to_snapshot())  # issued, not stored


def test_register_tenant_empty_metadata_rejected():
    vault = Vault()
    vault.register_cloud("CloudA", b"sa")
    vault.register_subdomain("CloudA", "hr")
    with pytest.raises(EmptyMetadata):
        vault.register_tenant("CloudA", "hr", "t1", {}, {})


def test_register_tenant_unknown_realm():
    vault = Vault()
    vault.register_cloud("CloudA", b"sa")
    with pytest.raises(UnknownSubdomain):
        vault.register_tenant("CloudA", "nope", "t1", {}, META)
    with pytest.raises(UnknownCloud):
        vault.register_tenant("CloudX", "hr", "t1", {}, META)


def test_twin_metadata_tenants_get_distinct_private_keys():
    vault = Vault()
    vault.register_cloud("CloudA", b"sa")
    vault.register_subdomain("CloudA", "hr")
    privates = set()
    for tid in ("t1", "t2", "t3"):
        _, _, private = vault.register_tenant("CloudA", "hr", tid, {}, dict(META))
        privates.add(private.bytes)
    assert len(privates) == 3


def test_duplicate_tenant_rejected():
    vault = Vault()
    vault.register_cloud("CloudA", b"sa")
    vault.register_subdomain("CloudA", "hr")
    vault.register_tenant("CloudA", "hr", "t1", {}, META)
    with pytest.raises(AlreadyRegistered):
        vault.register_tenant("CloudA", "hr", "t1", {}, META)


def test_tenant_held_by_another_subdomain_rejected():
    # a tenant record lives under exactly one sub-domain: a second record
    # elsewhere would go unread, as match_personal_secrets reads the first
    vault = Vault()
    for cloud in ("CloudA", "CloudB"):
        vault.register_cloud(cloud, b"secret-" + cloud.encode())
        vault.register_subdomain(cloud, "bi")
    vault.register_tenant("CloudA", "bi", "alice", {}, {"pet": "cat"})
    with pytest.raises(AlreadyRegistered, match="CloudA/bi"):
        vault.register_tenant("CloudB", "bi", "alice", {}, {"pet": "dog"})
    assert vault.match_personal_secrets("alice", {"pet": "cat"})
    assert not vault.clouds["CloudB"].subdomains["bi"].tenants


def test_snapshot_naming_a_tenant_twice_rejected():
    doc = small_registry().to_snapshot()
    tenants = doc["clouds"]["CloudB"]["subdomains"]["s2"]["tenants"]
    tenants["CloudA-s1-user"] = tenants["CloudB-s2-user"]
    with pytest.raises(AlreadyRegistered, match="'CloudA-s1-user' already under CloudA/s1"):
        Vault.from_snapshot(doc)


def test_folder_counts_track_registrations():
    vault = small_registry()
    assert len(vault.clouds) == 2
    assert sum(len(c.subdomains) for c in vault.clouds.values()) == 4
    assert sum(len(s.tenants) for c in vault.clouds.values()
               for s in c.subdomains.values()) == 4


# -- membership verification --------------------------------------------------

def test_cross_pairings_brute_force():
    # every stored (IDr, IDs) pair is valid; every cross-realm pairing is not
    vault = small_registry()
    realms = [(cid, sid) for cid in ("CloudA", "CloudB") for sid in ("s1", "s2")]
    creds = {}
    for cid, sid in realms:
        cloud = vault.clouds[cid]
        creds[(cid, sid)] = (cloud.root_key, cloud.subdomains[sid].subdomain_key)
    for (c1, s1), (c2, s2) in itertools.product(realms, realms):
        idr = creds[(c1, s1)][0]
        ids = creds[(c2, s2)][1]
        expected = c1 == c2  # IDs must live under IDr's cloud
        assert vault.verify_membership(idr, ids) == expected, (c1, s1, c2, s2)


def test_find_member_names_the_tenant_in_its_realm():
    # a tenant is found only under the (IDr, IDs) of the realm it registered in
    vault = small_registry()
    realms = [(cid, sid) for cid in ("CloudA", "CloudB") for sid in ("s1", "s2")]
    for (c1, s1), (c2, s2) in itertools.product(realms, realms):
        cloud = vault.clouds[c2]
        found = vault.find_member(f"{c1}-{s1}-user", cloud.root_key,
                                  cloud.subdomains[s2].subdomain_key)
        if (c1, s1) == (c2, s2):
            assert found.tenant_id == f"{c1}-{s1}-user"
        else:
            assert found is None, (c1, s1, c2, s2)
    cloud = vault.clouds["CloudA"]
    assert vault.find_member("nobody", cloud.root_key, cloud.subdomains["s1"].subdomain_key) is None


def test_random_bytes_invalid():
    from crossrealm.keys import KeyPart, KeyRole
    vault = small_registry()
    idr = KeyPart(b"\x42" * 32, KeyRole.ROOT)
    ids = KeyPart(b"\x43" * 32, KeyRole.SUBDOMAIN)
    assert not vault.verify_membership(idr, ids)


def test_membership_without_tenants_is_invalid():
    vault = Vault()
    vault.register_cloud("CloudA", b"sa")
    sub = vault.register_subdomain("CloudA", "hr")
    assert not vault.verify_membership(vault.clouds["CloudA"].root_key, sub)


def test_verification_is_read_only():
    vault = small_registry()
    before = json.dumps(vault.to_snapshot(), sort_keys=True)
    cloud = vault.clouds["CloudA"]
    vault.verify_membership(cloud.root_key, cloud.subdomains["s1"].subdomain_key)
    from crossrealm.keys import KeyPart, KeyRole
    vault.verify_membership(KeyPart(b"\x01" * 32, KeyRole.ROOT),
                            KeyPart(b"\x02" * 32, KeyRole.SUBDOMAIN))
    assert json.dumps(vault.to_snapshot(), sort_keys=True) == before


# -- personal secrets -----------------------------------------------------------

def test_match_personal_secrets_exact():
    vault = small_registry()
    assert vault.match_personal_secrets("CloudA-s1-user", dict(META))


def test_match_personal_secrets_wrong_value():
    vault = small_registry()
    answers = dict(META, pet="cat")
    assert not vault.match_personal_secrets("CloudA-s1-user", answers)


def test_match_personal_secrets_subsets_rejected():
    # exhaustive over all proper subsets of a 3-class record
    vault = small_registry()
    classes = list(META)
    for r in range(len(classes)):
        for subset in itertools.combinations(classes, r):
            answers = {cls: META[cls] for cls in subset}
            assert not vault.match_personal_secrets("CloudA-s1-user", answers), subset
    extra = dict(META, colour="blue")  # superset still matches every stored class
    assert vault.match_personal_secrets("CloudA-s1-user", extra)


_MUTATIONS = (
    lambda m: m.clear(),
    lambda m: m.update(spouse="mallory"),
    lambda m: m.pop("spouse"),
    lambda m: m.__setitem__("pet", "cat"),
    lambda m: m.__delitem__("pet"),
)


@pytest.mark.parametrize("reload", [False, True], ids=["registered", "from-snapshot"])
def test_a_found_record_cannot_change_the_secrets(reload):
    # find_member hands out the stored record; neither of its mappings can
    # be changed through it, nor through the mapping the tenant registered
    # with, so match_personal_secrets still asks for every stored answer
    meta, details = dict(META), {"plan": "standard"}
    vault = Vault()
    vault.register_cloud("CloudA", ZERO_SECRET)
    vault.register_subdomain("CloudA", "s1")
    idr, ids, _ = vault.register_tenant("CloudA", "s1", "user-0001", details, meta)
    meta.clear()
    details.clear()
    if reload:
        vault = Vault.from_snapshot(vault.to_snapshot())
    before = vault.to_snapshot()
    record = vault.find_member("user-0001", idr, ids)
    for mapping in (record.extension_metadata, record.primary_details):
        for mutate in _MUTATIONS:
            try:
                mutate(mapping)
            except (AttributeError, TypeError):
                pass  # refused: the record's view is read-only
    assert not vault.match_personal_secrets("user-0001", {})
    assert not vault.match_personal_secrets("user-0001", dict(META, spouse="mallory"))
    assert vault.match_personal_secrets("user-0001", dict(META))
    assert vault.to_snapshot() == before
    assert record.primary_details == {"plan": "standard"}


def test_match_unknown_tenant():
    vault = small_registry()
    with pytest.raises(UnknownTenant):
        vault.match_personal_secrets("ghost", {})


# -- snapshots ---------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path):
    vault = small_registry()
    path = tmp_path / "vault.json"
    vault.save_snapshot(path)
    reloaded = Vault.load_snapshot(path)
    assert reloaded.to_snapshot() == vault.to_snapshot()
    # reloaded vault still verifies the same memberships
    cloud = vault.clouds["CloudB"]
    assert reloaded.verify_membership(cloud.root_key, cloud.subdomains["s2"].subdomain_key)


def test_snapshot_is_hex_encoded_structure():
    vault = small_registry()
    doc = vault.to_snapshot()
    assert set(doc) == {"clouds"}
    root_hex = doc["clouds"]["CloudA"]["root_key"]
    assert root_hex == root_hex.lower()
    bytes.fromhex(root_hex)


def test_a_snapshot_keeps_only_what_registration_cannot_derive():
    # each cloud's root key, and the names, details and metadata below it:
    # no sub-domain key, signature, IDr or IDs
    doc = small_registry().to_snapshot()
    clouds = list(doc["clouds"].values())
    subdomains = [sdoc for cdoc in clouds for sdoc in cdoc["subdomains"].values()]
    tenants = [tdoc for sdoc in subdomains for tdoc in sdoc["tenants"].values()]
    assert {key for cdoc in clouds for key in cdoc} == {"root_key", "subdomains"}
    assert {key for sdoc in subdomains for key in sdoc} == {"tenants"}
    assert {key for tdoc in tenants for key in tdoc} == {"primary_details", "extension_metadata"}


# -- snapshots load through registration --------------------------------------------

def bi_registry() -> Vault:
    """alice under CloudA/bi and bob under CloudB/bi."""
    vault = Vault()
    for cloud, tenant in (("CloudA", "alice"), ("CloudB", "bob")):
        vault.register_cloud(cloud, b"secret-" + cloud.encode())
        vault.register_subdomain(cloud, "bi")
        vault.register_tenant(cloud, "bi", tenant, {"plan": "x"}, {"pet": f"{tenant}-pet"})
    return vault


def earlier_format(vault: Vault) -> dict:
    """The vault's snapshot in the earlier format, which also stored each
    sub-domain's key and each tenant's signature, IDr and IDs."""
    doc = vault.to_snapshot()
    for cid, cdoc in doc["clouds"].items():
        for sid, sdoc in cdoc["subdomains"].items():
            root, sub = vault.realm_keys(cid, sid)
            sdoc["subdomain_key"] = sub.hex()
            for tid, tdoc in sdoc["tenants"].items():
                signature = derive_signature(tid, tdoc["extension_metadata"])
                tdoc.update(signature=signature.bytes.hex(), idr=root.hex(), ids=sub.hex())
    return doc


def alice(doc: dict) -> dict:
    return doc["clouds"]["CloudA"]["subdomains"]["bi"]["tenants"]["alice"]


def test_a_loaded_record_holds_the_keys_of_the_folder_it_is_filed_under():
    # alice filed under CloudA/bi with CloudB/bi's IDr and IDs stored
    vault = bi_registry()
    doc = earlier_format(vault)
    b_root, b_sub = vault.realm_keys("CloudB", "bi")
    alice(doc).update(idr=b_root.hex(), ids=b_sub.hex())
    loaded = Vault.from_snapshot(doc)
    a_keys = vault.realm_keys("CloudA", "bi")
    assert loaded.find_member("alice", *a_keys) == vault.find_member("alice", *a_keys)
    assert loaded.find_member("alice", b_root, b_sub) is None


def test_a_snapshot_tenant_without_metadata_is_refused():
    # a record with no metadata class would match any answers at all
    doc = bi_registry().to_snapshot()
    alice(doc)["extension_metadata"] = {}
    with pytest.raises(EmptyMetadata):
        Vault.from_snapshot(doc)


def test_a_snapshot_tenant_with_metadata_that_is_not_text_is_refused():
    doc = bi_registry().to_snapshot()
    alice(doc)["extension_metadata"] = {"pet": 7}
    with pytest.raises(InvalidInput, match="tenant 'alice' of CloudA/bi: metadata value 7"):
        Vault.from_snapshot(doc)


def _no_metadata(doc: dict) -> str:
    alice(doc)["extension_metadata"] = {}
    return "snapshot tenant 'alice' of CloudA/bi: "


def _held_twice(doc: dict) -> str:
    doc["clouds"]["CloudB"]["subdomains"]["bi"]["tenants"]["alice"] = alice(doc)
    return "snapshot tenant 'alice' of CloudB/bi: "


@pytest.mark.parametrize("edit, error", [(_no_metadata, EmptyMetadata),
                                         (_held_twice, AlreadyRegistered)],
                         ids=["no-metadata", "held-twice"])
def test_a_registration_error_from_a_snapshot_names_its_part_and_file(tmp_path, edit, error):
    # of the type registration raises, with the prefixes of the loaders' own errors
    doc = bi_registry().to_snapshot()
    part = edit(doc)
    with pytest.raises(error, match="^" + re.escape(part)):
        Vault.from_snapshot(doc)
    path = tmp_path / "vault.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match="^" + re.escape(f"{path}: {part}")):
        Vault.load_snapshot(path)


@pytest.mark.parametrize("call", [
    lambda vault: vault.register_cloud(["CloudC"], b"secret"),
    lambda vault: vault.register_subdomain(["CloudA"], "hr"),
    lambda vault: vault.register_subdomain("CloudA", ["hr"]),
    lambda vault: vault.register_tenant(["CloudA"], "bi", "carol", {}, META),
    lambda vault: vault.register_tenant("CloudA", ["bi"], "carol", {}, META),
    lambda vault: vault.register_tenant("CloudA", "bi", ["carol"], {}, META),
    lambda vault: vault.realm_keys("CloudA", ["bi"]),
], ids=["cloud", "subdomain-cloud", "subdomain", "tenant-cloud", "tenant-subdomain", "tenant",
        "realm-keys"])
def test_an_id_that_cannot_be_hashed_is_invalid_input_naming_it(call):
    # it was looked up in a dict first, which raised a raw TypeError
    vault = bi_registry()
    with pytest.raises(InvalidInput, match=r" id \['\w+'\] is not text"):
        call(vault)
    assert vault.to_snapshot() == bi_registry().to_snapshot()


@pytest.mark.parametrize("call, named", [
    (lambda vault: derive_signature("carol", 5), "extension metadata 5 is not a mapping"),
    (lambda vault: vault.register_tenant("CloudA", "bi", "carol", {}, 5),
     "extension metadata 5 is not a mapping"),
    (lambda vault: vault.register_tenant("CloudA", "bi", "carol", {}, [("pet", "cat")]),
     "extension metadata [('pet', 'cat')] is not a mapping"),
    (lambda vault: vault.match_personal_secrets(["alice"], {}), "tenant id ['alice'] is not text"),
    (lambda vault: vault.find_member(["alice"], *vault.realm_keys("CloudA", "bi")),
     "tenant id ['alice'] is not text"),
    (lambda vault: vault.verify_membership("x", "y"), "IDr 'x' is not a key part"),
    (lambda vault: vault.verify_membership(vault.realm_keys("CloudA", "bi")[0], None),
     "IDs None is not a key part"),
    (lambda vault: vault.find_member("alice", b"\x01" * 32, vault.realm_keys("CloudA", "bi")[1]),
     "IDr b'\\x01\\x01"),
    (lambda vault: vault.find_member("alice", None, None), "IDr None is not a key part"),
], ids=["signature", "tenant-metadata", "tenant-metadata-pairs", "match-secrets", "find-member",
        "membership-text", "membership-none", "find-member-bytes", "find-member-none"])
def test_metadata_or_a_looked_up_id_of_the_wrong_type_is_invalid_input(call, named):
    # a raw AttributeError (metadata.items(), a key part's .bytes) or
    # TypeError (an unhashable dict key) escaped before
    vault = bi_registry()
    with pytest.raises(InvalidInput, match=re.escape(named)):
        call(vault)
    assert vault.to_snapshot() == bi_registry().to_snapshot()


def test_an_empty_tenant_id_is_looked_up_as_any_other():
    # phase 5 looks up whatever text a request names: it finds no one
    vault = bi_registry()
    assert vault.find_member("", *vault.realm_keys("CloudA", "bi")) is None
    with pytest.raises(UnknownTenant):
        vault.match_personal_secrets("", {})


@pytest.mark.parametrize("cloud_id, subdomain_id, named", [
    ("", "bi", "cloud id '' is empty"),
    ("CloudA", "", "sub-domain id '' is empty"),
], ids=["cloud", "subdomain"])
def test_an_empty_realm_id_is_invalid_input_not_an_unknown_realm(cloud_id, subdomain_id, named):
    # no realm can be registered under an empty id, so looking one up is
    # refused as registering one is
    with pytest.raises(InvalidInput, match=re.escape(named)):
        bi_registry().realm_keys(cloud_id, subdomain_id)


@pytest.mark.parametrize("details, named", [
    (5, "primary details 5 are not a mapping"),
    ({"plan": 5}, "primary detail value 5 of 'plan' is not text"),
    ({5: "x"}, "primary detail name 5 is not text"),
], ids=["not-a-mapping", "value", "name"])
def test_primary_details_that_are_not_text_are_invalid_input(details, named):
    # as metadata that is not text is: dict(5) raised a raw TypeError, and
    # {"plan": 5} was stored
    vault = bi_registry()
    with pytest.raises(InvalidInput, match=re.escape(named)):
        vault.register_tenant("CloudA", "bi", "carol", details, META)
    assert vault.to_snapshot() == bi_registry().to_snapshot()


def test_a_loaded_signature_is_derived_from_the_loaded_metadata():
    doc = earlier_format(bi_registry())
    alice(doc)["extension_metadata"] = {"pet": "cat"}
    loaded = Vault.from_snapshot(doc)
    record = loaded.find_member("alice", *loaded.realm_keys("CloudA", "bi"))
    assert record.signature == derive_signature("alice", {"pet": "cat"})


def test_a_loaded_subdomain_key_is_derived_from_its_clouds_root():
    vault = bi_registry()
    doc = earlier_format(vault)
    doc["clouds"]["CloudA"]["subdomains"]["bi"]["subdomain_key"] = "42" * 32
    root, sub = Vault.from_snapshot(doc).realm_keys("CloudA", "bi")
    assert sub == derive_subdomain_key(root, "bi") == vault.realm_keys("CloudA", "bi")[1]


def test_a_tampered_snapshot_in_the_earlier_format_loads_as_registration_builds_it():
    vault = bi_registry()
    doc = earlier_format(vault)
    b_root, b_sub = vault.realm_keys("CloudB", "bi")
    doc["clouds"]["CloudA"]["subdomains"]["bi"]["subdomain_key"] = b_sub.hex()
    alice(doc).update(idr=b_root.hex(), signature="00" * 32)
    loaded = Vault.from_snapshot(doc)
    assert loaded.to_snapshot() == vault.to_snapshot()
    for cid, tid in (("CloudA", "alice"), ("CloudB", "bob")):
        assert loaded.realm_keys(cid, "bi") == vault.realm_keys(cid, "bi")
        record = loaded.find_member(tid, *vault.realm_keys(cid, "bi"))
        assert record.signature == derive_signature(tid, record.extension_metadata)


def _load_file(data: bytes):
    def load(tmp_path):
        path = tmp_path / "vault.json"
        path.write_bytes(data)
        return Vault.load_snapshot(path)
    return load


# case -> (a load of it, the start of its message; {dir} is the test's directory)
_MALFORMED = {
    "document-a-list": (lambda tmp_path: Vault.from_snapshot([]), "snapshot: "),
    "no-clouds": (lambda tmp_path: Vault.from_snapshot({}), "snapshot: no 'clouds'"),
    "root-key-not-hex": (
        lambda tmp_path: Vault.from_snapshot(
            {"clouds": {"CloudA": {"root_key": "zz", "subdomains": {}}}}),
        "snapshot cloud 'CloudA': "),
    "file-not-json": (_load_file(b"{"), "{dir}/vault.json: "),
    "file-not-text": (_load_file(b"\xff\xfe\x00"), "{dir}/vault.json: "),
    "file-no-clouds": (_load_file(b"{}"), "{dir}/vault.json: snapshot: no 'clouds'"),
    "file-a-directory": (lambda tmp_path: Vault.load_snapshot(tmp_path), "{dir}: "),
    "file-missing": (lambda tmp_path: Vault.load_snapshot(tmp_path / "none.json"),
                     "{dir}/none.json: "),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_a_malformed_snapshot_is_invalid_input_naming_its_part(case, tmp_path):
    load, names = _MALFORMED[case]
    with pytest.raises(InvalidInput, match="^" + re.escape(names.format(dir=tmp_path))):
        load(tmp_path)
