"""Grammars and Munn-tree oracles for co-word problems of free inverse monoids."""

from . import cfg, fim_grammars, munn, oracle, words
from .cfg import *
from .fim_grammars import *
from .munn import *
from .oracle import *
from .words import *

__all__ = cfg.__all__ + fim_grammars.__all__ + munn.__all__ + oracle.__all__ + words.__all__
