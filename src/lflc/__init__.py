"""Scalable light-field codec for additive layered displays.

The toolkit covers the full chain: fitting additive display-layer patterns
to a 4D light field, factoring the layers into scalable weighted-binary
images, compressing the grayscale basis images with an RBM-pretrained deep
autoencoder, and serializing everything into a progressive, truncatable
container. Rate-distortion sweeps and Bjontegaard metrics round it out.
"""

from .bitstream import (
    ContainerHeader,
    DecodedContainer,
    LevelPayload,
    bits_per_pixel,
    dequantize,
    entropy_decode,
    entropy_encode,
    quantize,
    read_container,
    section_boundaries,
    truncate_container,
    write_container,
)
from .config import (
    PipelineConfig,
    default_config,
    format_config,
    quant_bits_for_qp,
    read_config_file,
    resolve_config,
)
from .dbn import (
    Autoencoder,
    DbnConfig,
    RbmParams,
    cd_update,
    conditional_probabilities,
    decode_patches,
    depatchify,
    encode_patches,
    finetune,
    load_model,
    partition_function_bruteforce,
    pretrain_stack,
    rbm_energy,
    save_model,
    tile_patches,
    training_patches,
    unroll,
)
from .errors import (
    ConfigError,
    ContainerError,
    DataError,
    ManifestError,
    ModelError,
    PnmError,
    TruncatedSectionError,
    TruncatedStreamError,
)
from .layers import (
    LayerStack,
    SolverConfig,
    adjoint_scatter,
    load_layer_stack,
    optimize_layers,
    render_additive,
    save_layer_stack,
)
from .lightfield import (
    LightField,
    Manifest,
    angular_offset,
    load_light_field,
    psnr,
    psnr_masked,
    read_manifest,
    save_light_field,
    write_manifest,
)
from .metrics import BdResult, RdPoint, bd_metrics, rd_sweep
from .pipeline import (
    DecodeResult,
    EncodeResult,
    decode_light_field,
    encode_light_field,
    train_autoencoder,
)
from .pnm import image_to_unit, read_pnm, unit_to_image, write_pnm
from .wbi import (
    WbiCode,
    WbiConfig,
    WbiLevel,
    alternate_minimize,
    decode_levels,
    encode_scalable,
    solve_basis,
    solve_codes,
)

__version__ = "0.1.0"
