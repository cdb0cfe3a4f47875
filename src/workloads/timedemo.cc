#include "workloads/timedemo.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/prof.hh"
#include "common/strutil.hh"
#include "workloads/shadowvolume.hh"

namespace wc3d::workloads {

namespace {

/** Orthonormal basis with +Z mapped to @p dir (for volume slabs). */
Mat4
basisFromZ(Vec3 dir)
{
    Vec3 z = dir.normalized();
    Vec3 up = std::fabs(z.y) < 0.9f ? Vec3{0, 1, 0} : Vec3{1, 0, 0};
    Vec3 x = up.cross(z).normalized();
    Vec3 y = z.cross(x);
    Mat4 m = Mat4::identity();
    m.m[0][0] = x.x;
    m.m[0][1] = x.y;
    m.m[0][2] = x.z;
    m.m[1][0] = y.x;
    m.m[1][1] = y.y;
    m.m[1][2] = y.z;
    m.m[2][0] = z.x;
    m.m[2][1] = z.y;
    m.m[2][2] = z.z;
    return m;
}

/** Fraction of batches that must be strips/fans to reach a share of
 *  primitives (strips emit ~3x the primitives per index of lists). */
double
batchShareForPrimShare(double prim_share)
{
    if (prim_share <= 0.0)
        return 0.0;
    return prim_share / (3.0 - 2.0 * prim_share);
}

frag::DepthStencilState
depthLEqualWrite()
{
    frag::DepthStencilState ds;
    ds.depthTest = true;
    ds.depthFunc = frag::CompareFunc::LEqual;
    ds.depthWrite = true;
    return ds;
}

} // namespace

Timedemo::Timedemo(GameProfile profile)
    : _profile(std::move(profile)),
      _camera(_profile.worldRadius * 0.85f, 2.0f * kPi / 600.0f, 2.5f)
{
}

void
Timedemo::setup(api::Device &device)
{
    WC3D_ASSERT(!_isSetup);
    _isSetup = true;
    const GameProfile &p = _profile;
    Rng rng(p.seed);

    // ---- Derived batch composition ---------------------------------
    int lights = p.stencilShadows ? p.lightPasses : 0;
    int vol_batches = lights * p.volumesPerLight;
    double ts = p.translucentShare;
    double passes_per_opaque = p.zPrepass ? (1.0 + p.lightPasses) : 1.0;
    double batches_per_object =
        (1.0 - ts) * passes_per_opaque + ts * 1.0;
    double target_objects =
        (static_cast<double>(p.batchesPerFrame) - vol_batches) /
            batches_per_object -
        6.0; // backdrop walls submitted every frame
    if (target_objects < 8.0)
        target_objects = 8.0;

    float r_in = p.worldRadius * 0.55f;
    float r_out = p.worldRadius * 1.15f;

    // ---- Shader instruction targets ---------------------------------
    // The profile's fs targets are the batch-weighted average over ALL
    // batches, including depth-only prepass and shadow-volume batches
    // (1 instruction, 0 textures); solve for the material-pass target.
    double depth_only_batches =
        p.zPrepass ? (1.0 - ts) * target_objects + vol_batches : 0.0;
    double material_batches =
        p.batchesPerFrame - depth_only_batches;
    double m_fs = p.fsInstructions;
    double m_tex = p.fsTexInstructions;
    if (depth_only_batches > 0.0 && material_batches > 0.0) {
        m_fs = (p.fsInstructions * p.batchesPerFrame -
                depth_only_batches) /
               material_batches;
        m_tex = p.fsTexInstructions * p.batchesPerFrame /
                material_batches;
    }
    m_fs = std::max(m_fs, 2.0);
    m_tex = std::clamp(m_tex, 0.0, 8.0);

    // ---- Programs ----------------------------------------------------
    _vsMain = device.createProgram(shader::ProgramKind::Vertex,
                                   synthVertexProgram(p.vsInstructions));
    if (p.vsInstructionsRegion2 > 0) {
        _vsRegion2 = device.createProgram(
            shader::ProgramKind::Vertex,
            synthVertexProgram(p.vsInstructionsRegion2));
    }
    _fsDepthOnly = device.createProgram(shader::ProgramKind::Fragment,
                                        "!!FP depthonly\nMOV o0, v1;\n");

    // ---- Materials ----------------------------------------------------
    auto specs = planMaterialMix(p.materialCount, m_fs, m_tex,
                                 p.alphaTestShare, rng);
    // Texture pool shared across materials.
    std::vector<std::uint32_t> pool;
    int pool_size = std::max(8, p.materialCount * 3);
    for (int t = 0; t < pool_size; ++t) {
        api::TextureSpec spec;
        spec.kind = (t % 3 == 0) ? api::TextureSpec::Kind::Checker
                                 : api::TextureSpec::Kind::Noise;
        spec.size = p.textureSize;
        spec.cell = p.textureSize / 8;
        spec.seed = p.seed * 977 + static_cast<std::uint64_t>(t);
        // Alpha-varying textures for alpha-tested materials. They use
        // the profile's format like the rest of the pool; in DXT1 (every
        // game's) their alpha is punch-through, cut to 1 bit at 128.
        if (t % 3 == 1)
            spec.alphaNoise = true;
        spec.colorA = {static_cast<std::uint8_t>(120 + 10 * (t % 9)),
                       static_cast<std::uint8_t>(100 + 13 * (t % 7)),
                       static_cast<std::uint8_t>(90 + 17 * (t % 5)), 255};
        spec.colorB = {40, 44, 52, 255};
        spec.format = p.texFormat;
        pool.push_back(device.createTexture(spec));
    }

    int translucent_count =
        static_cast<int>(std::lround(ts * p.materialCount));
    for (int m = 0; m < p.materialCount; ++m) {
        MaterialIds mat;
        mat.spec = specs[static_cast<std::size_t>(m)];
        mat.translucent =
            m >= p.materialCount - translucent_count;
        mat.program = device.createProgram(
            shader::ProgramKind::Fragment,
            synthFragmentProgram(mat.spec));
        for (int u = 0; u < std::max(1, mat.spec.texInstructions); ++u) {
            int idx = (m * 3 + u * 5) % pool_size;
            // Alpha-test materials sample the alpha-varying (noise)
            // pool entries at slot 0 so KIL sees real variation.
            if (mat.spec.alphaKill && u == 0 && idx % 3 != 1)
                idx = (idx / 3) * 3 + 1;
            mat.textures.push_back(pool[static_cast<std::size_t>(idx)]);
        }
        _materials.push_back(std::move(mat));
    }

    // ---- Meshes --------------------------------------------------------
    // Topology shares are over primitives; convert to batch shares
    // (strips/fans emit ~3x the primitives per index of lists).
    double strip_batches = batchShareForPrimShare(p.stripPrimShare);
    double fan_batches = batchShareForPrimShare(p.fanPrimShare);

    std::vector<int> list_pool;
    std::vector<int> strip_pool;
    std::vector<int> fan_pool;
    int strip_variants = strip_batches > 0.0
        ? std::max(1, static_cast<int>(
              std::lround(strip_batches * p.meshVariants)))
        : 0;
    int fan_variants = fan_batches > 0.0
        ? std::max(1, static_cast<int>(
              std::lround(fan_batches * p.meshVariants)))
        : 0;

    for (int v = 0; v < p.meshVariants; ++v) {
        // Size jitter in [0.7, 1.3] with mean 1 (dithered).
        float f = 0.7f + 0.6f * static_cast<float>(v) /
                             std::max(1, p.meshVariants - 1);
        int target = std::max(
            3, static_cast<int>(std::lround(p.indicesPerBatch * f)));

        Mesh mesh;
        if (v < strip_variants) {
            // Strip indices ~ 2*(qx+1)*qy: pick a square-ish grid.
            int side = std::max(
                1, static_cast<int>(std::sqrt(target / 2.0)));
            mesh = makeTerrain(side, p.wallScale * 0.3f,
                               p.seed + static_cast<std::uint64_t>(v),
                               /*strip=*/true);
            strip_pool.push_back(v);
        } else if (v < strip_variants + fan_variants) {
            mesh = makeDiscFan(std::max(3, target - 2), p.uvScale);
            fan_pool.push_back(v);
        } else {
            int quads = std::max(1, target / 6);
            int qx = std::max(1, static_cast<int>(std::sqrt(quads)));
            int qy = std::max(1, quads / qx);
            if (v % 5 == 4) {
                mesh = makeBox(std::max(1, qx / 2),
                               {0.5f, 0.5f, 0.5f});
            } else {
                mesh = makeGridPatch(qx, qy, p.uvScale);
            }
            padIndices(mesh, target);
            list_pool.push_back(v);
        }
        mesh.indices.type = p.indexType;

        _meshTopology.push_back(mesh.topology);
        _meshIndexCounts.push_back(
            static_cast<std::uint32_t>(mesh.indices.indices.size()));
        auto vb = device.createVertexBuffer(std::move(mesh.vertices));
        auto ib = device.createIndexBuffer(std::move(mesh.indices));
        _meshIds.emplace_back(vb, ib);
    }
    WC3D_ASSERT(!list_pool.empty());

    // Shadow-volume slab (unit: base at origin, extruded along +Z).
    if (p.stencilShadows) {
        Mesh slab = makeShadowVolumeSlab({0, 0, 0}, {0, 0, 1}, 1.0f, 1.0f);
        slab.indices.type = p.indexType;
        _volumeIndexCount =
            static_cast<std::uint32_t>(slab.indices.indices.size());
        auto vb = device.createVertexBuffer(std::move(slab.vertices));
        auto ib = device.createIndexBuffer(std::move(slab.indices));
        _volumeMesh = {vb, ib};
    }

    // ---- Object placement -----------------------------------------------
    auto pick_mesh = [&](Rng &r) {
        double u = r.nextFloat();
        const std::vector<int> *pool = &list_pool;
        if (u < strip_batches && !strip_pool.empty()) {
            pool = &strip_pool;
        } else if (u < strip_batches + fan_batches && !fan_pool.empty()) {
            pool = &fan_pool;
        }
        return (*pool)[r.nextBounded(
            static_cast<std::uint32_t>(pool->size()))];
    };
    float ring_radius = p.worldRadius * 0.85f;
    for (int i = 0; i < p.objectCount; ++i) {
        ObjectInstance obj;
        obj.mesh = pick_mesh(rng);
        obj.material = static_cast<int>(rng.nextBounded(
            static_cast<std::uint32_t>(p.materialCount)));
        bool translucent =
            _materials[static_cast<std::size_t>(obj.material)]
                .translucent;
        float angle = rng.nextRange(0.0f, 2.0f * kPi);
        // Translucent surfaces (glass, particles, decals) float in the
        // walkway space where they stay visible in front of the walls;
        // opaque structure fills the annulus.
        // Opaque structure keeps a clear corridor around the camera
        // ring (rooms have walkable space); translucent surfaces float
        // in that walkway.
        float radius = 0.0f;
        if (translucent) {
            radius = ring_radius * rng.nextRange(0.82f, 1.18f);
        } else {
            do {
                radius = rng.nextRange(r_in, r_out);
            } while (p.corridorWidth > 0.0f &&
                     std::fabs(radius - ring_radius) < p.corridorWidth);
        }
        float height = translucent ? rng.nextRange(0.5f, 4.5f)
                                   : rng.nextRange(-1.0f, 7.0f);
        obj.position = {radius * std::cos(angle), height,
                        radius * std::sin(angle)};
        obj.scale = p.wallScale * rng.nextRange(0.6f, 1.6f) *
                    (translucent ? 1.1f : 1.0f);
        bool strip_mesh =
            _meshTopology[static_cast<std::size_t>(obj.mesh)] ==
            geom::PrimitiveType::TriangleStrip;
        obj.horizontal = strip_mesh ||
                         rng.nextFloat() < p.horizontalShare;
        if (rng.nextFloat() < p.wallFacingBias) {
            // Face the ring walkway: normal points towards the camera
            // ring at this angle.
            obj.yaw = angle + kPi;
        } else {
            obj.yaw = rng.nextRange(0.0f, 2.0f * kPi);
        }
        _objects.push_back(obj);
    }

    // Backdrop: a ring of large far walls that keep the screen covered
    // (games always render something at every pixel; the open annulus
    // alone would leave void).
    const int kBackdrops = 10;
    for (int b = 0; b < kBackdrops; ++b) {
        ObjectInstance obj;
        obj.mesh = list_pool[static_cast<std::size_t>(
            b % static_cast<int>(list_pool.size()))];
        obj.material = static_cast<int>(rng.nextBounded(
            static_cast<std::uint32_t>(p.materialCount)));
        if (_materials[static_cast<std::size_t>(obj.material)]
                .translucent) {
            obj.material = 0;
        }
        float angle = 2.0f * kPi * static_cast<float>(b) / kBackdrops;
        obj.position = {r_out * 1.15f * std::cos(angle), 3.0f,
                        r_out * 1.15f * std::sin(angle)};
        obj.yaw = angle + kPi; // face the ring
        obj.scale = p.worldRadius * 1.2f;
        obj.backdrop = true;
        _objects.push_back(obj);
    }

    // ---- Draw-distance calibration ---------------------------------
    // Binary-search the cull radius so the average visible object count
    // over sampled camera positions matches the batch target.
    auto avg_visible = [this, &p](float radius) {
        const int samples = 24;
        std::uint64_t total = 0;
        for (int s = 0; s < samples; ++s) {
            Vec3 eye = _camera.position(s * 37);
            Vec3 fwd = (_camera.target(s * 37) - eye).normalized();
            for (const ObjectInstance &o : _objects) {
                if (o.backdrop)
                    continue;
                Vec3 d = o.position - eye;
                float dist2 = d.dot(d);
                if (dist2 >= radius * radius)
                    continue;
                if (dist2 > 25.0f &&
                    d.dot(fwd) < p.coneCullDot * std::sqrt(dist2)) {
                    continue;
                }
                ++total;
            }
        }
        return static_cast<double>(total) / samples;
    };
    float lo = 1.0f;
    float hi = p.worldRadius * 2.5f;
    for (int iter = 0; iter < 24; ++iter) {
        float mid = 0.5f * (lo + hi);
        if (avg_visible(mid) < target_objects) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    _viewRadius = 0.5f * (lo + hi) * p.viewScale;
    if (avg_visible(p.worldRadius * 2.5f) <
        target_objects * 0.95) {
        warn("timedemo %s: object field too sparse for %d batches/frame",
             p.id.c_str(), p.batchesPerFrame);
    }
}

Mat4
Timedemo::modelMatrix(const ObjectInstance &obj) const
{
    Mat4 m = Mat4::translate(obj.position) * Mat4::rotateY(obj.yaw);
    if (obj.horizontal)
        m = m * Mat4::rotateX(-kPi * 0.5f);
    return m * Mat4::scale({obj.scale, obj.scale, obj.scale});
}

void
Timedemo::setMvp(api::Device &device, const Mat4 &mvp)
{
    // Constants c0..c3 are the matrix rows (DP4-friendly).
    for (int row = 0; row < 4; ++row) {
        device.setConstant(shader::ProgramKind::Vertex,
                           static_cast<std::uint32_t>(row),
                           {mvp.m[0][row], mvp.m[1][row], mvp.m[2][row],
                            mvp.m[3][row]});
    }
}

void
Timedemo::bindMaterial(api::Device &device, const MaterialIds &mat)
{
    device.bindProgram(shader::ProgramKind::Fragment, mat.program);
    tex::SamplerState ss;
    ss.filter = _profile.filter;
    ss.maxAniso = _profile.maxAniso;
    ss.lodBias = _profile.samplerLodBias;
    for (std::size_t u = 0; u < mat.textures.size(); ++u) {
        device.bindTexture(static_cast<std::uint32_t>(u),
                           mat.textures[u], ss);
    }
}

void
Timedemo::drawObject(api::Device &device, const ObjectInstance &obj,
                     const Mat4 &viewproj)
{
    setMvp(device, viewproj * modelMatrix(obj));
    for (int e = 0; e < _profile.extraStateCallsPerBatch; ++e) {
        device.setConstant(shader::ProgramKind::Fragment,
                           static_cast<std::uint32_t>(8 + e),
                           {1, 1, 1, 1});
    }
    auto mesh_idx = static_cast<std::size_t>(obj.mesh);
    device.draw(_meshIds[mesh_idx].first, _meshIds[mesh_idx].second, 0,
                _meshIndexCounts[mesh_idx],
                _meshTopology[mesh_idx] == geom::PrimitiveType::TriangleList
                    ? geom::PrimitiveType::TriangleList
                    : _meshTopology[mesh_idx]);
}

void
Timedemo::drawVolumes(api::Device &device, int frame, int light,
                      const Mat4 &viewproj, Vec3 eye, Vec3 forward)
{
    Rng rng(_profile.seed ^ (static_cast<std::uint64_t>(frame) << 20) ^
            static_cast<std::uint64_t>(light));
    auto volumes = planShadowVolumes(_profile.volumesPerLight, light, eye,
                                     forward, rng);
    for (const VolumePlacement &v : volumes) {
        Mat4 model = Mat4::translate(v.base) * basisFromZ(v.extrude) *
                     Mat4::scale({v.width, v.width, v.length});
        setMvp(device, viewproj * model);
        device.draw(_volumeMesh.first, _volumeMesh.second, 0,
                    _volumeIndexCount, geom::PrimitiveType::TriangleList);
    }
}

void
Timedemo::renderFrame(api::Device &device, int frame)
{
    WC3D_ASSERT(_isSetup && "call setup() first");
    const GameProfile &p = _profile;

    // Frame clear.
    api::ClearCmd clear;
    clear.colorValue = 0xff000000;
    device.clear(clear);

    Vec3 eye = _camera.position(frame);
    Vec3 fwd = (_camera.target(frame) - eye).normalized();
    Mat4 viewproj =
        CameraPath::projection() * _camera.view(frame);

    // Variable draw distance drives the Fig. 1 batch fluctuation.
    float fframe = static_cast<float>(frame);
    float osc = 0.6f * std::sin(fframe * 0.21f) +
                0.4f * std::sin(fframe * 0.047f);
    float r = _viewRadius *
              std::sqrt(std::max(
                  0.2f, 1.0f + static_cast<float>(p.batchJitter) * osc));

    _visible.clear();
    for (std::size_t i = 0; i < _objects.size(); ++i) {
        Vec3 d = _objects[i].position - eye;
        float dist2 = d.dot(d);
        if (_objects[i].backdrop) {
            // Backdrops: submitted whenever roughly ahead.
            if (d.dot(fwd) > -0.2f * std::sqrt(dist2))
                _visible.push_back(static_cast<int>(i));
            continue;
        }
        if (dist2 >= r * r)
            continue;
        // Coarse CPU cone cull (games' PVS/portal culling analogue):
        // close objects are always submitted.
        if (dist2 > 25.0f &&
            d.dot(fwd) < p.coneCullDot * std::sqrt(dist2)) {
            continue;
        }
        _visible.push_back(static_cast<int>(i));
    }
    // Material-sorted submission (fewer redundant binds, like engines
    // do); translucents drawn last, far to near.
    std::sort(_visible.begin(), _visible.end(), [this](int a, int b) {
        return _objects[static_cast<std::size_t>(a)].material <
               _objects[static_cast<std::size_t>(b)].material;
    });
    auto first_translucent = std::stable_partition(
        _visible.begin(), _visible.end(), [this](int i) {
            return !_materials[static_cast<std::size_t>(
                                   _objects[static_cast<std::size_t>(i)]
                                       .material)]
                        .translucent;
        });
    std::sort(first_translucent, _visible.end(), [this, eye](int a, int b) {
        Vec3 da = _objects[static_cast<std::size_t>(a)].position - eye;
        Vec3 db = _objects[static_cast<std::size_t>(b)].position - eye;
        return da.dot(da) > db.dot(db);
    });
    std::size_t opaque_count = static_cast<std::size_t>(
        std::distance(_visible.begin(), first_translucent));

    // Oblivion-style second region switches vertex programs mid-demo.
    std::uint32_t vs = _vsMain;
    if (_vsRegion2 && frame >= p.paperFrames / 2)
        vs = _vsRegion2;
    device.bindProgram(shader::ProgramKind::Vertex, vs);

    int last_material = -1;
    auto draw_opaque_pass = [&]() {
        last_material = -1;
        for (std::size_t k = 0; k < opaque_count; ++k) {
            const ObjectInstance &obj =
                _objects[static_cast<std::size_t>(_visible[k])];
            if (obj.material != last_material) {
                bindMaterial(
                    device,
                    _materials[static_cast<std::size_t>(obj.material)]);
                last_material = obj.material;
            }
            drawObject(device, obj, viewproj);
        }
    };

    if (p.zPrepass) {
        // Depth-only prepass: LEqual + write, colour masked.
        device.setDepthStencil(depthLEqualWrite());
        frag::BlendState masked;
        masked.enabled = true;
        masked.colorWriteMask = false;
        device.setBlend(masked);
        device.bindProgram(shader::ProgramKind::Fragment, _fsDepthOnly);
        for (std::size_t k = 0; k < opaque_count; ++k) {
            drawObject(device,
                       _objects[static_cast<std::size_t>(_visible[k])],
                       viewproj);
        }

        int lights = std::max(1, p.lightPasses);
        for (int light = 0; light < lights; ++light) {
            if (p.stencilShadows) {
                // Per-light stencil clear + z-fail volume pass.
                api::ClearCmd sclear;
                sclear.color = false;
                sclear.depth = false;
                sclear.stencil = true;
                device.clear(sclear);

                frag::DepthStencilState sv;
                sv.depthTest = true;
                sv.depthFunc = frag::CompareFunc::Less;
                sv.depthWrite = false;
                sv.stencilTest = true;
                sv.front.zfail = frag::StencilOp::DecrWrap;
                sv.back.zfail = frag::StencilOp::IncrWrap;
                device.setDepthStencil(sv);
                frag::BlendState vol_masked;
                vol_masked.enabled = true;
                vol_masked.colorWriteMask = false;
                device.setBlend(vol_masked);
                device.setCullMode(geom::CullMode::None);
                device.bindProgram(shader::ProgramKind::Fragment,
                                   _fsDepthOnly);
                drawVolumes(device, frame, light, viewproj, eye, fwd);
                device.setCullMode(geom::CullMode::Back);
            }

            // Additive lighting pass gated by depth-equal (+ stencil).
            frag::DepthStencilState lp;
            lp.depthTest = true;
            lp.depthFunc = frag::CompareFunc::Equal;
            lp.depthWrite = false;
            if (p.stencilShadows) {
                lp.stencilTest = true;
                lp.front.func = frag::CompareFunc::Equal;
                lp.front.ref = 0;
                lp.back = lp.front;
            }
            device.setDepthStencil(lp);
            frag::BlendState additive;
            additive.enabled = true;
            additive.srcFactor = frag::BlendFactor::One;
            additive.dstFactor = frag::BlendFactor::One;
            device.setBlend(additive);
            draw_opaque_pass();
        }
    } else {
        // Single base pass.
        device.setDepthStencil(depthLEqualWrite());
        frag::BlendState base;
        base.enabled = true;
        base.srcFactor = frag::BlendFactor::One;
        base.dstFactor = frag::BlendFactor::Zero;
        device.setBlend(base);
        draw_opaque_pass();
    }

    // Translucent batches: depth-read, no write, alpha blend.
    if (opaque_count < _visible.size()) {
        frag::DepthStencilState td;
        td.depthTest = true;
        td.depthFunc = frag::CompareFunc::LEqual;
        td.depthWrite = false;
        device.setDepthStencil(td);
        frag::BlendState tb;
        tb.enabled = true;
        tb.srcFactor = frag::BlendFactor::SrcAlpha;
        tb.dstFactor = frag::BlendFactor::InvSrcAlpha;
        device.setBlend(tb);
        last_material = -1;
        for (std::size_t k = opaque_count; k < _visible.size(); ++k) {
            const ObjectInstance &obj =
                _objects[static_cast<std::size_t>(_visible[k])];
            if (obj.material != last_material) {
                bindMaterial(
                    device,
                    _materials[static_cast<std::size_t>(obj.material)]);
                last_material = obj.material;
            }
            drawObject(device, obj, viewproj);
        }
    }

    // Scene transitions: periodic resource loads (the Fig. 3 spikes).
    if (p.sceneTransitionPeriod > 0 && frame > 0 &&
        frame % p.sceneTransitionPeriod == 0) {
        for (int t = 0; t < 6; ++t) {
            api::TextureSpec spec;
            spec.kind = api::TextureSpec::Kind::Noise;
            spec.size = p.textureSize;
            spec.seed = p.seed * 31337 +
                        static_cast<std::uint64_t>(_transitionSeq++);
            spec.format = p.texFormat;
            device.createTexture(spec);
        }
    }

    device.endFrame();
}

void
Timedemo::run(api::Device &device, int frames)
{
    if (!_isSetup) {
        WC3D_PROF_SCOPE("timedemo.setup");
        setup(device);
    }
    for (int f = 0; f < frames; ++f) {
        WC3D_PROF_SCOPE("frame", format("%d", f));
        renderFrame(device, f);
    }
}

} // namespace wc3d::workloads
