"""Runtime type representations with generic views and safe serialization.

Importing the package registers descriptors for the built-in types
(numbers, strings, lists, pairs, arrays) and the demo types (binary and
rose trees, naturals, a polymorphically recursive tree, an extensible
exception type, and a small expression language).
"""

from . import exprlang, prelude  # noqa: F401  (registration side effects)
from .desc import (
    NO_DESC,
    AbstractDesc,
    ArrayLikeDesc,
    ConApp,
    Constructor,
    ExtensibleDesc,
    ExtValue,
    Field,
    ProductDesc,
    RecordDesc,
    Representation,
    ScalarDesc,
    SynonymDesc,
    VariantDesc,
    conap,
    register,
    register_repr,
    view_desc,
)
from .effects import Effectful, run_io, run_reader, run_state
from .errors import ReflectixError
from .extfun import ExtFun
from .generics import equal, show
from .safeser import (
    Block,
    Bytes,
    Direction,
    ExtCon,
    Float,
    Imm,
    ValueGraph,
    build_graph,
    check_compat,
    convert,
    decode_graph,
    deserialize,
    encode_graph,
    materialize,
    serialize,
)
from .typerep import (
    ANY,
    Dyn,
    Head,
    TyCon,
    TypeRep,
    anti_unify,
    declare,
    matches,
    parse_type,
    render,
    ty_equal,
)
from .uniplate import children, family, map_family, replace_children
from .views import conlist, spine, sumprod

__all__ = [
    "ANY",
    "AbstractDesc",
    "ArrayLikeDesc",
    "Block",
    "Bytes",
    "ConApp",
    "Constructor",
    "Direction",
    "Dyn",
    "Effectful",
    "ExtCon",
    "ExtFun",
    "ExtValue",
    "ExtensibleDesc",
    "Field",
    "Float",
    "Head",
    "Imm",
    "NO_DESC",
    "ProductDesc",
    "RecordDesc",
    "ReflectixError",
    "Representation",
    "ScalarDesc",
    "SynonymDesc",
    "TyCon",
    "TypeRep",
    "ValueGraph",
    "VariantDesc",
    "anti_unify",
    "build_graph",
    "check_compat",
    "children",
    "conap",
    "conlist",
    "convert",
    "declare",
    "decode_graph",
    "deserialize",
    "encode_graph",
    "equal",
    "family",
    "map_family",
    "matches",
    "materialize",
    "parse_type",
    "register",
    "register_repr",
    "render",
    "replace_children",
    "run_io",
    "run_reader",
    "run_state",
    "serialize",
    "show",
    "spine",
    "sumprod",
    "ty_equal",
    "view_desc",
]

__version__ = "0.1.0"
