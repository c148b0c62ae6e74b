"""Golden session digests: behaviour and simulated time pinned per app.

Each of the nine app configurations runs one ``run_app_session`` on the
compiled VM tier.  The sha256 of its ``equivalence_key()``,
``diagnosis_key()``, ``recovery_time_ns`` and ``validation_time_ns``
must match the constant recorded below.  A host-time optimisation that
changes one simulated byte, one verdict or one sim-ns fails here.

The constants change only when a change sets out to change the model;
regenerate them by printing ``_digest(_session_tuple(name))`` for each
app and say why in the change log.
"""

import hashlib

import pytest

from repro.apps.registry import all_apps
from repro.bench.harness import run_app_session

GOLDEN = {
    "apache": "f093eca851b6fb0958974edf79fe7a6c68c6542d99b58b47f25c90b067c1a100",
    "apache-dpw": "0f7fc99c4fde9eb5565f59645277a3ca2c3f16bdda8be1b6032d9d5a7c7d50db",
    "apache-uir": "0b32c527e1c2d26eb81f8350b7ce9fca495b8a60dc470d892d3047d6468e7926",
    "bc": "90520841b1fd4fd8a5cb95a3c864c6bfd55025291f3c6b7eb2e3190e4be218c5",
    "cvs": "80b70744bd6de947ff8a65d1d608f143455ddf035ef3314b01805082f93e4a4b",
    "m4": "21405cdfdd5a78efeb176e896b22bd2424ccf187c3f2f43f171155c164bdb042",
    "mutt": "b7f627da849e5c1520bfbceaaca2ae885b924f1a2083b7f4a1174c9cdde21fb3",
    "pine": "9945d37d05c2aeb488396953f5181b50a7980e546c4e80d0693113390db68ba0",
    "squid": "e975a329c94b83a5f564875c7805896189192e8b1481ea5a783e83b39c46c908",
}


def _session_tuple(name: str) -> tuple:
    digest = run_app_session(name, vm_tier="compiled")
    return (digest.equivalence_key(), digest.diagnosis_key(),
            digest.recovery_time_ns, digest.validation_time_ns)


def _digest(value: tuple) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_every_app_configuration_is_pinned():
    assert sorted(GOLDEN) == sorted(a.name for a in all_apps())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_session_digest_matches_golden(name):
    value = _session_tuple(name)
    assert _digest(value) == GOLDEN[name], (
        f"{name} session changed; full tuple:\n"
        f"equivalence_key={value[0]!r}\n"
        f"diagnosis_key={value[1]!r}\n"
        f"recovery_time_ns={value[2]!r}\n"
        f"validation_time_ns={value[3]!r}")
