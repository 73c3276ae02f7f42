"""The package's records are NamedTuples: read-only, built without code
generated at import, and a submersion model checks its fields wherever
one is built."""

import dataclasses
import importlib
import inspect
import json
import pkgutil

import pytest

import oneill_lab
from oneill_lab import jets
from oneill_lab.cli import BUNDLED_DIR, resolve_model
from oneill_lab.errors import RejectedInputError
from oneill_lab.report import Tolerances, render_json
from oneill_lab.submersion import SubmersionModel, load_custom_model

MODULES = [
    importlib.import_module(f"oneill_lab.{info.name}")
    for info in pkgutil.iter_modules(oneill_lab.__path__)
    if info.name != "__main__"
]
CLASSES = {
    f"{module.__name__.rpartition('.')[2]}.{name}": cls
    for module in MODULES
    for name, cls in vars(module).items()
    if inspect.isclass(cls) and cls.__module__ == module.__name__
}
RECORDS = (
    "cli.RunConfig",
    "contact.ContactData",
    "contact.SasakianSpaceFormSpec",
    "contact.SpaceFormData",
    "invariants.PointAnalysis",
    "jets.JetPoint",
    "report.Tolerances",
    "report.Report",
    "riemannian.VectorField",
    "riemannian.ManifoldModel",
    "riemannian.MetricData",
    "riemannian.ConnectionData",
    "riemannian.CurvatureData",
    "sampling.SampleConfig",
    "submersion.SubmersionModel",
    "submersion.SubmersionCheck",
    "submersion.AdaptedFrame",
    "submersion.OneillData",
    "theorems.TheoremTable",
    "theorems.ScanPlan",
)


def test_no_class_but_the_reference_jet_is_a_dataclass():
    assert [cls for cls in CLASSES.values() if dataclasses.is_dataclass(cls)] == [
        jets.ScalarJet
    ]


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    cls = CLASSES[name]
    assert issubclass(cls, tuple) and cls._fields
    # a record of placeholders, past the checks of SubmersionModel.__new__
    record = tuple.__new__(cls, [None] * len(cls._fields))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
    with pytest.raises(AttributeError):
        record.not_a_field = 0.0


def test_render_json_rejects_a_record():
    with pytest.raises(RejectedInputError, match="unserializable report value: Tolerances"):
        render_json({"tolerances": Tolerances()})
    assert json.loads(render_json({"tolerances": Tolerances()._asdict()})) == {
        "tolerances": {"alg": 1e-10, "d1": 1e-8, "curv": 1e-7, "d2curv": 1e-6}
    }


def _bad_fields(base):
    return [
        ("xi_case", "diagonal", "unknown xi_case 'diagonal'"),
        ("vertical_fields", (), "both distributions need at least one field"),
        (
            "horizontal_fields",
            base.horizontal_fields[:1],
            "vertical and horizontal blocks together must span the total space",
        ),
        ("projection", base.projection[:1], "projection arity must match the target dimension"),
    ]


class TestSubmersionModelChecks:
    """The checks and messages of the former dataclass ``__post_init__``."""

    def test_every_way_of_building_checks(self):
        base = resolve_model("vertical-xi")
        for field, value, message in _bad_fields(base):
            fields = {**base._asdict(), field: value}
            builds = (
                lambda: SubmersionModel(**fields),
                lambda: SubmersionModel(*fields.values()),
                lambda: SubmersionModel._make(fields.values()),
                lambda: base._replace(**{field: value}),
            )
            for build in builds:
                with pytest.raises(RejectedInputError) as info:
                    build()
                assert str(info.value) == message, field

    def test_a_valid_rebuild_is_the_same_model(self):
        base = resolve_model("vertical-xi")
        assert type(base._replace()) is SubmersionModel
        assert base._replace() == base
        assert SubmersionModel(*base) == base

    def test_model_file_with_a_bad_xi_case(self):
        data = json.loads((BUNDLED_DIR / "vertical-xi.json").read_text())
        data["xi_case"] = "diagonal"
        with pytest.raises(RejectedInputError, match="^unknown xi_case 'diagonal'$"):
            load_custom_model(json.dumps(data).encode())
