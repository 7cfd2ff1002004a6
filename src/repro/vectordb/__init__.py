"""From-scratch vector database: quantization, ANN indexes, collections."""

from repro.vectordb.collection import SearchHit, VectorCollection
from repro.vectordb.flat import FlatIndex
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb.ivfpq import IVFPQIndex
from repro.vectordb.kmeans import KMeansResult, lloyd_kmeans
from repro.vectordb.metadata import MetadataStore
from repro.vectordb.quantization import ProductQuantizer

__all__ = [
    "VectorCollection",
    "SearchHit",
    "FlatIndex",
    "IVFPQIndex",
    "HNSWIndex",
    "MetadataStore",
    "ProductQuantizer",
    "lloyd_kmeans",
    "KMeansResult",
]
