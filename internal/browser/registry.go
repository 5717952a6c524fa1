package browser

import "sort"

// appendix3Protos is the verbatim list of 200 prototype names whose
// property counts formed the paper's deviation-based candidate
// fingerprints during Real-World Data Collection (paper Appendix-3).
// Two entries keep the paper's own spelling (BytelengthQueuingStrategy,
// SVGAnimatedlengthList) so feature names match the published table.
var appendix3Protos = []string{
	"Element", "Document", "HTMLElement", "SVGElement", "Navigator",
	"RTCIceCandidate", "SVGFEBlendElement", "TextMetrics", "Range",
	"StaticRange", "RTCRtpReceiver", "RTCPeerConnection",
	"AuthenticatorAttestationResponse", "FontFace", "HTMLVideoElement",
	"ResizeObserverEntry", "ShadowRoot", "RTCRtpSender", "PointerEvent",
	"Blob", "ServiceWorkerRegistration", "MediaSession", "PaymentResponse",
	"HTMLSourceElement", "Clipboard", "IDBTransaction", "Performance",
	"ServiceWorkerContainer", "HTMLIFrameElement", "PaymentRequest",
	"RTCRtpTransceiver", "IntersectionObserver", "CanvasRenderingContext2D",
	"CSSStyleSheet", "BaseAudioContext", "AudioContext", "HTMLLinkElement",
	"RTCDataChannel", "WritableStream", "DataTransferItem",
	"DocumentFragment", "HTMLMediaElement",
	"StorageManager", "HTMLSlotElement", "Text", "WebGL2RenderingContext",
	"HTMLInputElement", "WebGLRenderingContext", "HTMLButtonElement",
	"HTMLTextAreaElement", "HTMLSelectElement", "MediaRecorder",
	"CountQueuingStrategy", "BytelengthQueuingStrategy", "PerformanceMark",
	"PerformanceMeasure", "HTMLImageElement", "SpeechSynthesisEvent",
	"HTMLFormElement", "IDBCursor", "HTMLTemplateElement", "CSSRule",
	"Location", "PaymentAddress", "IntersectionObserverEntry",
	"TextEncoder", "ImageData", "HTMLMetaElement", "Crypto",
	"GamepadButton", "DOMMatrixReadOnly", "MediaKeys", "MessageEvent",
	"IDBFactory", "MediaDevices", "OfflineAudioContext", "URL",
	"ScriptProcessorNode", "SVGAnimatedNumberList", "ServiceWorker",
	"SensorErrorEvent", "SVGAnimatedPreserveAspectRatio", "Sensor",
	"SVGAnimatedRect", "SVGAnimatedString", "Selection",
	"SecurityPolicyViolationEvent", "XPathExpression", "SVGAnimatedNumber",
	"SVGAnimatedTransformList", "Screen", "RTCTrackEvent",
	"SVGAnimateElement", "SVGAnimateMotionElement", "RTCStatsReport",
	"RTCSessionDescription", "SVGAnimateTransformElement",
	"ScreenOrientation", "SVGAnimatedlengthList", "XPathResult",
	"SVGAngle", "SVGAElement", "SubtleCrypto", "SVGAnimatedAngle",
	"StyleSheetList", "StyleSheet", "StylePropertyMapReadOnly",
	"StylePropertyMap", "XPathEvaluator", "SVGAnimatedBoolean",
	"SharedWorker", "StorageEvent", "Storage", "StereoPannerNode",
	"SVGAnimatedEnumeration", "SpeechSynthesisUtterance",
	"SVGAnimatedInteger", "SVGAnimatedLength", "SpeechSynthesisErrorEvent",
	"SourceBufferList", "SourceBuffer", "WebGLFramebuffer",
	"PresentationConnection", "Plugin", "PluginArray", "PopStateEvent",
	"Presentation", "PresentationAvailability",
	"PresentationConnectionAvailableEvent",
	"PresentationConnectionCloseEvent", "PresentationConnectionList",
	"PresentationReceiver", "PresentationRequest", "ProcessingInstruction",
	"PictureInPictureWindow", "PermissionStatus", "PromiseRejectionEvent",
	"PerformanceNavigationTiming", "PerformanceObserver",
	"PerformanceObserverEntryList", "PerformancePaintTiming", "Permissions",
	"PerformanceResourceTiming", "PerformanceServerTiming",
	"PerformanceTiming", "PeriodicWave", "ProgressEvent",
	"PublicKeyCredential", "RTCDTMFToneChangeEvent", "RTCCertificate",
	"RTCDataChannelEvent", "RTCDTMFSender", "RTCPeerConnectionIceEvent",
	"Response", "PushManager", "PushSubscription", "PushSubscriptionOptions",
	"RadioNodeList", "ReadableStream", "ResizeObserver",
	"RelativeOrientationSensor", "RemotePlayback", "ReportingObserver",
	"Request", "SVGAnimationElement", "XMLHttpRequestEventTarget",
	"SVGCircleElement", "TreeWalker", "WebGLTexture", "TextDecoderStream",
	"TextEncoderStream", "WebGLSync", "TextTrack", "TextTrackCue",
	"TextTrackCueList", "WebGLShaderPrecisionFormat", "TextTrackList",
	"TimeRanges", "Touch", "TouchEvent", "TouchList", "TrackEvent",
	"TransformStream", "WebGLTransformFeedback", "TextDecoder",
	"WebGLUniformLocation", "SVGTitleElement", "WebGLVertexArrayObject",
	"SVGSymbolElement", "SVGTextContentElement", "SVGTextElement",
	"SVGTextPathElement", "SVGTextPositioningElement", "SVGTransform",
	"TaskAttributionTiming", "SVGTransformList", "SVGTSpanElement",
	"SVGUnitTypes", "SVGUseElement", "SVGViewElement",
}

// extraProtos extends the registry toward the paper's full MDN sweep
// (1006 interfaces in §6.1). We carry the common interfaces the candidate
// generation stage ranks against; the substitution is documented in
// DESIGN.md — the stage's behaviour depends on having a wide pool of
// mostly low-variance interfaces, not on the exact count.
var extraProtos = []string{
	"AbortController", "AbortSignal", "AnalyserNode", "Animation",
	"AnimationEvent", "Attr", "AudioBuffer", "AudioBufferSourceNode",
	"AudioDestinationNode", "AudioListener", "AudioNode", "AudioParam",
	"AudioWorkletNode", "BarProp", "BeforeUnloadEvent", "BiquadFilterNode",
	"BroadcastChannel", "CDATASection", "CSSConditionRule",
	"CSSFontFaceRule", "CSSGroupingRule", "CSSImportRule",
	"CSSKeyframeRule", "CSSKeyframesRule", "CSSMediaRule",
	"CSSNamespaceRule", "CSSPageRule", "CSSRuleList", "CSSStyleDeclaration",
	"CSSStyleRule", "CSSSupportsRule", "CacheStorage", "ChannelMergerNode",
	"ChannelSplitterNode", "CharacterData", "ClipboardEvent",
	"ClipboardItem", "CloseEvent", "Comment", "CompositionEvent",
	"ConstantSourceNode", "ConvolverNode", "CryptoKey", "CustomElementRegistry",
	"CustomEvent", "DOMException", "DOMImplementation", "DOMMatrix",
	"DOMParser", "DOMPoint", "DOMPointReadOnly", "DOMQuad", "DOMRect",
	"DOMRectList", "DOMRectReadOnly", "DOMStringList", "DOMStringMap",
	"DOMTokenList", "DataTransfer", "DataTransferItemList", "DelayNode",
	"DeviceMotionEvent", "DeviceOrientationEvent", "DragEvent",
	"DynamicsCompressorNode", "ErrorEvent", "Event", "EventSource",
	"EventTarget", "File", "FileList", "FileReader", "FocusEvent",
	"FontFaceSet", "FormData", "GainNode", "Gamepad", "GamepadEvent",
	"HTMLAnchorElement", "HTMLAreaElement", "HTMLAudioElement",
	"HTMLBRElement", "HTMLBaseElement", "HTMLBodyElement",
	"HTMLCanvasElement", "HTMLCollection", "HTMLDListElement",
	"HTMLDataElement", "HTMLDataListElement", "HTMLDetailsElement",
	"HTMLDialogElement", "HTMLDivElement", "HTMLDocument",
	"HTMLEmbedElement", "HTMLFieldSetElement", "HTMLFontElement",
	"HTMLFrameElement", "HTMLFrameSetElement", "HTMLHRElement",
	"HTMLHeadElement", "HTMLHeadingElement", "HTMLHtmlElement",
	"HTMLLIElement", "HTMLLabelElement", "HTMLLegendElement",
	"HTMLMapElement", "HTMLMarqueeElement", "HTMLMenuElement",
	"HTMLModElement", "HTMLOListElement", "HTMLObjectElement",
	"HTMLOptGroupElement", "HTMLOptionElement", "HTMLOutputElement",
	"HTMLParagraphElement", "HTMLParamElement", "HTMLPictureElement",
	"HTMLPreElement", "HTMLProgressElement", "HTMLQuoteElement",
	"HTMLScriptElement", "HTMLSpanElement", "HTMLStyleElement",
	"HTMLTableCaptionElement", "HTMLTableCellElement", "HTMLTableColElement",
	"HTMLTableElement", "HTMLTableRowElement", "HTMLTableSectionElement",
	"HTMLTimeElement", "HTMLTitleElement", "HTMLTrackElement",
	"HTMLUListElement", "HTMLUnknownElement", "HashChangeEvent",
	"Headers", "History", "IDBDatabase", "IDBIndex", "IDBKeyRange",
	"IDBObjectStore", "IDBOpenDBRequest", "IDBRequest", "IIRFilterNode",
	"ImageBitmap", "ImageBitmapRenderingContext", "ImageCapture",
	"InputEvent", "KeyboardEvent", "MediaElementAudioSourceNode",
	"MediaEncryptedEvent", "MediaError", "MediaKeyMessageEvent",
	"MediaKeySession", "MediaKeyStatusMap", "MediaKeySystemAccess",
	"MediaList", "MediaMetadata", "MediaQueryList", "MediaQueryListEvent",
	"MediaSource", "MediaStream", "MediaStreamAudioDestinationNode",
	"MediaStreamAudioSourceNode", "MediaStreamEvent", "MediaStreamTrack",
	"MediaStreamTrackEvent", "MessageChannel", "MessagePort", "MimeType",
	"MimeTypeArray", "MouseEvent", "MutationEvent", "MutationObserver",
	"MutationRecord", "NamedNodeMap", "NavigationPreloadManager", "Node",
	"NodeFilter", "NodeIterator", "NodeList", "Notification",
	"OfflineAudioCompletionEvent", "OffscreenCanvas",
	"OffscreenCanvasRenderingContext2D", "Option", "OscillatorNode",
	"PageTransitionEvent", "PannerNode", "Path2D", "PaymentMethodChangeEvent",
	"PerformanceEntry", "PerformanceEventTiming", "PointerEventInit",
	"PositionSensorVRDevice", "ReadableStreamDefaultController",
	"ReadableStreamDefaultReader", "SVGAnimatedLengthList",
	"SVGClipPathElement", "SVGComponentTransferFunctionElement",
	"SVGDefsElement", "SVGDescElement", "SVGEllipseElement",
	"SVGFECompositeElement", "SVGFEFloodElement", "SVGFEGaussianBlurElement",
	"SVGFEImageElement", "SVGFEMergeElement", "SVGFEMorphologyElement",
	"SVGFEOffsetElement", "SVGFETileElement", "SVGFETurbulenceElement",
	"SVGFilterElement", "SVGForeignObjectElement", "SVGGElement",
	"SVGGeometryElement", "SVGGradientElement", "SVGGraphicsElement",
	"SVGImageElement", "SVGLength", "SVGLengthList", "SVGLineElement",
	"SVGLinearGradientElement", "SVGMarkerElement", "SVGMaskElement",
	"SVGMetadataElement", "SVGNumber", "SVGNumberList", "SVGPathElement",
	"SVGPatternElement", "SVGPoint", "SVGPointList", "SVGPolygonElement",
	"SVGPolylineElement", "SVGPreserveAspectRatio", "SVGRadialGradientElement",
	"SVGRect", "SVGRectElement", "SVGSVGElement", "SVGScriptElement",
	"SVGSetElement", "SVGStopElement", "SVGStringList", "SVGStyleElement",
	"SVGSwitchElement", "TextEvent", "TransitionEvent", "UIEvent",
	"URLSearchParams", "VTTCue", "ValidityState", "VisualViewport",
	"WaveShaperNode", "WebGLActiveInfo", "WebGLBuffer",
	"WebGLContextEvent", "WebGLProgram", "WebGLQuery", "WebGLRenderbuffer",
	"WebGLSampler", "WebGLShader", "WebSocket", "WheelEvent", "Window",
	"Worker", "XMLDocument", "XMLHttpRequest", "XMLHttpRequestUpload",
	"XMLSerializer", "XSLTProcessor",
}

var (
	registry     []string
	registrySet  map[string]bool
	appendix3Set map[string]bool
)

func init() {
	seen := make(map[string]bool, len(appendix3Protos)+len(extraProtos))
	for _, lists := range [][]string{appendix3Protos, extraProtos} {
		for _, p := range lists {
			if seen[p] {
				panic("browser: duplicate prototype in registry: " + p)
			}
			seen[p] = true
			registry = append(registry, p)
		}
	}
	sort.Strings(registry)
	registrySet = seen
	appendix3Set = make(map[string]bool, len(appendix3Protos))
	for _, p := range appendix3Protos {
		appendix3Set[p] = true
	}
}

// Registry returns all modeled prototype names, sorted. The slice is
// shared; callers must not mutate it.
func Registry() []string { return registry }

// Appendix3Protos returns the paper's 200 deviation-candidate prototypes
// in publication order. The slice is shared; callers must not mutate it.
func Appendix3Protos() []string { return appendix3Protos }

// knownProto reports whether the registry models the prototype.
func knownProto(name string) bool { return registrySet[name] }

// isAppendix3 reports whether the prototype is in the paper's published
// deviation-candidate list.
func isAppendix3(name string) bool { return appendix3Set[name] }
